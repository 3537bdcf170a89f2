//go:build !amd64 || purego

package mac

// useSHANI is false: this build has no SHA-NI kernel.
var useSHANI = false

func sum128(*Digest, *paddedBlock) { panic("mac: no SHA-NI kernel in this build") }
