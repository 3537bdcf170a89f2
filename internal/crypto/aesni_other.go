//go:build !amd64 || purego

package crypto

// useAESNI is false: this build has no AES-NI kernel.
var useAESNI = false

func expandKey128(*[16]byte, *roundKeys) { panic("crypto: no AES-NI kernel in this build") }

func encrypt4(*roundKeys, *[64]byte, *[64]byte) { panic("crypto: no AES-NI kernel in this build") }
