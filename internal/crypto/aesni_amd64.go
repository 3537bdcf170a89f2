//go:build !purego

package crypto

// useAESNI selects the AES-NI pad kernel of aesni_amd64.s.
var useAESNI = hasAESNI()

// hasAESNI reports whether CPUID lists AES-NI.
func hasAESNI() bool

// expandKey128 writes the eleven AES-128 encryption round keys of key to rk.
//
//go:noescape
func expandKey128(key *[16]byte, rk *roundKeys)

// encrypt4 encrypts the four 16-byte lanes of src under rk into dst,
// applying each round key to all four lanes before the next.
//
//go:noescape
func encrypt4(rk *roundKeys, dst, src *[64]byte)
