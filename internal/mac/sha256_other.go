//go:build !amd64 || purego

package mac

// useSHANI and useAVX512 are false: this build has no kernels.
var useSHANI, useAVX512 = false, false

func sum128(*Digest, *paddedBlock) { panic("mac: no SHA-NI kernel in this build") }

func sum16(*[LaneCount]Digest, *[LaneCount]paddedBlock) {
	panic("mac: no AVX-512 kernel in this build")
}
