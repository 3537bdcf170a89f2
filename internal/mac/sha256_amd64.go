//go:build !purego

package mac

// useSHANI selects the SHA-NI kernel of sha256_amd64.s for every MAC of a
// whole 64-byte block that is not hashed in a batch of 16 lanes.
var useSHANI = hasSHANI()

// useAVX512 selects the 16-lane kernel of sha256_amd64.s for a batch of at
// least minLanes16 messages.
var useAVX512 = hasAVX512()

// hasSHANI reports whether CPUID lists the SHA extensions, SSSE3 and SSE4.1.
func hasSHANI() bool

// hasAVX512 reports whether CPUID lists AVX512F and AVX512BW and the OS
// saves the ZMM and opmask state.
func hasAVX512() bool

// sum128 sets d to the SHA-256 digest of the message whose padded form is
// msg: two 64-byte blocks, compressed from the IV in one call.
//
//go:noescape
func sum128(d *Digest, msg *paddedBlock)

// sum16 sets d[i] to the SHA-256 digest of the message whose padded form
// is msgs[i], for all 16 lanes at once: sum128 on each lane, in one call.
//
//go:noescape
func sum16(d *[LaneCount]Digest, msgs *[LaneCount]paddedBlock)
