//go:build !purego

package mac

// useSHANI selects the SHA-NI kernel of shani_amd64.s for every MAC of a
// whole 64-byte block.
var useSHANI = hasSHANI()

// hasSHANI reports whether CPUID lists the SHA extensions, SSSE3 and SSE4.1.
func hasSHANI() bool

// sum128 sets d to the SHA-256 digest of the message whose padded form is
// msg: two 64-byte blocks, compressed from the IV in one call.
//
//go:noescape
func sum128(d *Digest, msg *paddedBlock)
