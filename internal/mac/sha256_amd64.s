//go:build !purego

#include "textflag.h"

// sum128 is blockSHANI from the Go distribution's
// crypto/internal/fips140/sha256/sha256block_amd64.s (Copyright The Go
// Authors; BSD-style license, see the Go distribution's LICENSE file; its
// source cites S. Gulley et al., "New Instructions Supporting the Secure
// Hash Algorithm on Intel Architecture Processors", 2013), adapted to one
// block MAC: it starts from the SHA-256 IV instead of a caller's state,
// compresses exactly the two 64-byte blocks of a pre-padded message, and
// stores the digest big-endian. Its VEX moves are SSE moves here and its
// constant table has no AVX2 duplicates, so it needs SHA, SSSE3 and SSE4.1
// but not AVX.
//
// sum16, further down, is a multi-buffer kernel written for this package:
// the same two-block message in 16 independent lanes, one per 32-bit lane
// of an AVX-512 register. It shares sum128's IV, byte-swap mask and round
// constants.

// func hasSHANI() bool
TEXT ·hasSHANI(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JB    noSHA
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00080200, CX // SSSE3 (bit 9) and SSE4.1 (bit 19)
	CMPL  CX, $0x00080200
	JNE   noSHA
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $29, BX         // SHA
	SETCS ret+0(FP)

noSHA:
	RET

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JB    noAVX512
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	BTL   $27, CX // OSXSAVE
	JCC   noAVX512
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX // the OS saves the XMM, YMM, opmask and ZMM state
	CMPL  AX, $0xe6
	JNE   noAVX512
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x40010000, BX // AVX512F (bit 16) and AVX512BW (bit 30)
	CMPL  BX, $0x40010000
	SETEQ ret+0(FP)

noAVX512:
	RET

// func sum128(d *Digest, msg *paddedBlock)
// Requires: SHA, SSE2, SSSE3, SSE4.1
TEXT ·sum128(SB), NOSPLIT, $0-16
	MOVQ    d+0(FP), DI
	MOVQ    msg+8(FP), SI
	LEAQ    128(SI), DX
	MOVOU   iv<>+0(SB), X1
	MOVOU   iv<>+16(SB), X2
	PSHUFD  $0xb1, X1, X1
	PSHUFD  $0x1b, X2, X2
	MOVO    X1, X7
	PALIGNR $0x08, X2, X1
	PBLENDW $0xf0, X7, X2
	MOVOU   flip_mask<>+0(SB), X8
	LEAQ    k256<>+0(SB), AX

roundLoop:
	// save hash values for addition after rounds
	MOVO    X1, X9
	MOVO    X2, X10

	// do rounds 0-59
	MOVOU       (SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X3
	PADDD       (AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVOU       16(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X4
	PADDD       16(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVOU       32(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X5
	PADDD       32(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVOU       48(SI), X0
	PSHUFB      X8, X0
	MOVO        X0, X6
	PADDD       48(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       64(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       80(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       96(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       112(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       128(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       144(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X4, X3
	MOVO        X5, X0
	PADDD       160(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X5, X4
	MOVO        X6, X0
	PADDD       176(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X6, X7
	PALIGNR     $0x04, X5, X7
	PADDD       X7, X3
	SHA256MSG2  X6, X3
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X6, X5
	MOVO        X3, X0
	PADDD       192(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X3, X7
	PALIGNR     $0x04, X6, X7
	PADDD       X7, X4
	SHA256MSG2  X3, X4
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	SHA256MSG1  X3, X6
	MOVO        X4, X0
	PADDD       208(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X4, X7
	PALIGNR     $0x04, X3, X7
	PADDD       X7, X5
	SHA256MSG2  X4, X5
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1
	MOVO        X5, X0
	PADDD       224(AX), X0
	SHA256RNDS2 X0, X1, X2
	MOVO        X5, X7
	PALIGNR     $0x04, X4, X7
	PADDD       X7, X6
	SHA256MSG2  X5, X6
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// do rounds 60-63
	MOVO        X6, X0
	PADDD       240(AX), X0
	SHA256RNDS2 X0, X1, X2
	PSHUFD      $0x0e, X0, X0
	SHA256RNDS2 X0, X2, X1

	// add current hash values with previously saved
	PADDD X9, X1
	PADDD X10, X2

	// advance data pointer; loop until buffer empty
	ADDQ $0x40, SI
	CMPQ DX, SI
	JNE  roundLoop

	// write hash values back in the correct order, each word big-endian
	PSHUFD  $0x1b, X1, X1
	PSHUFD  $0xb1, X2, X2
	MOVO    X1, X7
	PBLENDW $0xf0, X2, X1
	PALIGNR $0x08, X7, X2
	PSHUFB  X8, X1
	PSHUFB  X8, X2
	MOVOU   X1, (DI)
	MOVOU   X2, 16(DI)
	RET

// sum16 hashes 16 padded block-MAC messages at once, one per 32-bit lane of
// the AVX-512 registers: Z0–Z7 hold the working variables a … h of every
// lane, Z8–Z23 the lanes' message schedule W0 … W15 (updated in place, so
// Wj holds W[t] for the latest t ≡ j mod 16), Z24–Z27 a round's
// temporaries. The 512-byte frame keeps the state a block starts from, for
// the feed-forward. Rotations are VPRORD, the three-input functions
// (Σ's XOR, Ch, Maj) one VPTERNLOGD each.

#define T0 Z24
#define T1 Z25
#define T2 Z26
#define T3 Z27

// ROUND is one SHA-256 round on every lane: h += Σ1(e) + Ch(e, f, g) +
// K[t] + W[t]; d += h; h += Σ0(a) + Maj(a, b, c). The caller renames the
// variables for the next round, so no register moves. K[t] is broadcast
// from the table AX points into.
#define ROUND(a, b, c, d, e, f, g, h, w, koff) \
	VPADDD.BCST koff(AX), w, T0;  \
	VPADDD      T0, h, h;         \
	VPRORD      $6, e, T1;        \
	VPRORD      $11, e, T2;       \
	VPRORD      $25, e, T3;       \
	VPTERNLOGD  $0x96, T3, T2, T1; \
	VPADDD      T1, h, h;         \
	VMOVDQA32   e, T0;            \
	VPTERNLOGD  $0xca, g, f, T0;  \
	VPADDD      T0, h, h;         \
	VPADDD      h, d, d;          \
	VPRORD      $2, a, T1;        \
	VPRORD      $13, a, T2;       \
	VPRORD      $22, a, T3;       \
	VPTERNLOGD  $0x96, T3, T2, T1; \
	VPADDD      T1, h, h;         \
	VMOVDQA32   a, T0;            \
	VPTERNLOGD  $0xe8, c, b, T0;  \
	VPADDD      T0, h, h

// SCHED replaces W[t] (w0) with W[t+16] = σ1(W[t+14]) + W[t+9] +
// σ0(W[t+1]) + W[t], after the round that used W[t].
#define SCHED(w0, w1, w9, w14) \
	VPRORD     $7, w1, T0;        \
	VPRORD     $18, w1, T1;       \
	VPSRLD     $3, w1, T2;        \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD     T0, w0, w0;        \
	VPADDD     w9, w0, w0;        \
	VPRORD     $17, w14, T0;      \
	VPRORD     $19, w14, T1;      \
	VPSRLD     $10, w14, T2;      \
	VPTERNLOGD $0x96, T2, T1, T0; \
	VPADDD     T0, w0, w0

// func sum16(d *[LaneCount]Digest, msgs *[LaneCount]paddedBlock)
// Requires: AVX512F, AVX512BW
TEXT ·sum16(SB), NOSPLIT, $512-16
	MOVQ d+0(FP), DI
	MOVQ msgs+8(FP), SI

	// Every lane starts from the IV.
	VPBROADCASTD iv<>+0(SB), Z0
	VPBROADCASTD iv<>+4(SB), Z1
	VPBROADCASTD iv<>+8(SB), Z2
	VPBROADCASTD iv<>+12(SB), Z3
	VPBROADCASTD iv<>+16(SB), Z4
	VPBROADCASTD iv<>+20(SB), Z5
	VPBROADCASTD iv<>+24(SB), Z6
	VPBROADCASTD iv<>+28(SB), Z7
	MOVQ $2, CX // blocks per message

block:
	VMOVDQU32 Z0, 0(SP)
	VMOVDQU32 Z1, 64(SP)
	VMOVDQU32 Z2, 128(SP)
	VMOVDQU32 Z3, 192(SP)
	VMOVDQU32 Z4, 256(SP)
	VMOVDQU32 Z5, 320(SP)
	VMOVDQU32 Z6, 384(SP)
	VMOVDQU32 Z7, 448(SP)
	// Load block b of each lane as one row, byte-swap its words, and
	// transpose the 16×16 words: Wj then holds word j of every lane.
	VBROADCASTI32X4 flip_mask<>+0(SB), Z0
	VMOVDQU32  0(SI), Z8
	VMOVDQU32  128(SI), Z9
	VMOVDQU32  256(SI), Z10
	VMOVDQU32  384(SI), Z11
	VMOVDQU32  512(SI), Z12
	VMOVDQU32  640(SI), Z13
	VMOVDQU32  768(SI), Z14
	VMOVDQU32  896(SI), Z15
	VMOVDQU32  1024(SI), Z16
	VMOVDQU32  1152(SI), Z17
	VMOVDQU32  1280(SI), Z18
	VMOVDQU32  1408(SI), Z19
	VMOVDQU32  1536(SI), Z20
	VMOVDQU32  1664(SI), Z21
	VMOVDQU32  1792(SI), Z22
	VMOVDQU32  1920(SI), Z23
	VPSHUFB    Z0, Z8, Z8
	VPSHUFB    Z0, Z9, Z9
	VPSHUFB    Z0, Z10, Z10
	VPSHUFB    Z0, Z11, Z11
	VPSHUFB    Z0, Z12, Z12
	VPSHUFB    Z0, Z13, Z13
	VPSHUFB    Z0, Z14, Z14
	VPSHUFB    Z0, Z15, Z15
	VPSHUFB    Z0, Z16, Z16
	VPSHUFB    Z0, Z17, Z17
	VPSHUFB    Z0, Z18, Z18
	VPSHUFB    Z0, Z19, Z19
	VPSHUFB    Z0, Z20, Z20
	VPSHUFB    Z0, Z21, Z21
	VPSHUFB    Z0, Z22, Z22
	VPSHUFB    Z0, Z23, Z23
	VPUNPCKLDQ Z9, Z8, Z0
	VPUNPCKHDQ Z9, Z8, Z1
	VPUNPCKLDQ Z11, Z10, Z2
	VPUNPCKHDQ Z11, Z10, Z3
	VPUNPCKLDQ Z13, Z12, Z4
	VPUNPCKHDQ Z13, Z12, Z5
	VPUNPCKLDQ Z15, Z14, Z6
	VPUNPCKHDQ Z15, Z14, Z7
	VPUNPCKLDQ Z17, Z16, Z24
	VPUNPCKHDQ Z17, Z16, Z25
	VPUNPCKLDQ Z19, Z18, Z26
	VPUNPCKHDQ Z19, Z18, Z27
	VPUNPCKLDQ Z21, Z20, Z28
	VPUNPCKHDQ Z21, Z20, Z29
	VPUNPCKLDQ Z23, Z22, Z30
	VPUNPCKHDQ Z23, Z22, Z31
	VPUNPCKLQDQ Z2, Z0, Z8
	VPUNPCKHQDQ Z2, Z0, Z9
	VPUNPCKLQDQ Z3, Z1, Z10
	VPUNPCKHQDQ Z3, Z1, Z11
	VPUNPCKLQDQ Z6, Z4, Z12
	VPUNPCKHQDQ Z6, Z4, Z13
	VPUNPCKLQDQ Z7, Z5, Z14
	VPUNPCKHQDQ Z7, Z5, Z15
	VPUNPCKLQDQ Z26, Z24, Z16
	VPUNPCKHQDQ Z26, Z24, Z17
	VPUNPCKLQDQ Z27, Z25, Z18
	VPUNPCKHQDQ Z27, Z25, Z19
	VPUNPCKLQDQ Z30, Z28, Z20
	VPUNPCKHQDQ Z30, Z28, Z21
	VPUNPCKLQDQ Z31, Z29, Z22
	VPUNPCKHQDQ Z31, Z29, Z23
	VSHUFI32X4 $0x44, Z12, Z8, Z0
	VSHUFI32X4 $0xee, Z12, Z8, Z1
	VSHUFI32X4 $0x44, Z20, Z16, Z2
	VSHUFI32X4 $0xee, Z20, Z16, Z3
	VSHUFI32X4 $0x88, Z2, Z0, Z8
	VSHUFI32X4 $0xdd, Z2, Z0, Z12
	VSHUFI32X4 $0x88, Z3, Z1, Z16
	VSHUFI32X4 $0xdd, Z3, Z1, Z20
	VSHUFI32X4 $0x44, Z13, Z9, Z0
	VSHUFI32X4 $0xee, Z13, Z9, Z1
	VSHUFI32X4 $0x44, Z21, Z17, Z2
	VSHUFI32X4 $0xee, Z21, Z17, Z3
	VSHUFI32X4 $0x88, Z2, Z0, Z9
	VSHUFI32X4 $0xdd, Z2, Z0, Z13
	VSHUFI32X4 $0x88, Z3, Z1, Z17
	VSHUFI32X4 $0xdd, Z3, Z1, Z21
	VSHUFI32X4 $0x44, Z14, Z10, Z0
	VSHUFI32X4 $0xee, Z14, Z10, Z1
	VSHUFI32X4 $0x44, Z22, Z18, Z2
	VSHUFI32X4 $0xee, Z22, Z18, Z3
	VSHUFI32X4 $0x88, Z2, Z0, Z10
	VSHUFI32X4 $0xdd, Z2, Z0, Z14
	VSHUFI32X4 $0x88, Z3, Z1, Z18
	VSHUFI32X4 $0xdd, Z3, Z1, Z22
	VSHUFI32X4 $0x44, Z15, Z11, Z0
	VSHUFI32X4 $0xee, Z15, Z11, Z1
	VSHUFI32X4 $0x44, Z23, Z19, Z2
	VSHUFI32X4 $0xee, Z23, Z19, Z3
	VSHUFI32X4 $0x88, Z2, Z0, Z11
	VSHUFI32X4 $0xdd, Z2, Z0, Z15
	VSHUFI32X4 $0x88, Z3, Z1, Z19
	VSHUFI32X4 $0xdd, Z3, Z1, Z23

	VMOVDQU32 0(SP), Z0
	VMOVDQU32 64(SP), Z1
	VMOVDQU32 128(SP), Z2
	VMOVDQU32 192(SP), Z3
	VMOVDQU32 256(SP), Z4
	VMOVDQU32 320(SP), Z5
	VMOVDQU32 384(SP), Z6
	VMOVDQU32 448(SP), Z7

	// Rounds 0–47 schedule the next 16 words as they go, 16 per iteration.
	LEAQ k256<>+0(SB), AX
	MOVQ $3, DX

rounds:
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 0)
	SCHED(Z8, Z9, Z17, Z22)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 4)
	SCHED(Z9, Z10, Z18, Z23)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 8)
	SCHED(Z10, Z11, Z19, Z8)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 12)
	SCHED(Z11, Z12, Z20, Z9)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 16)
	SCHED(Z12, Z13, Z21, Z10)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 20)
	SCHED(Z13, Z14, Z22, Z11)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 24)
	SCHED(Z14, Z15, Z23, Z12)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 28)
	SCHED(Z15, Z16, Z8, Z13)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 32)
	SCHED(Z16, Z17, Z9, Z14)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 36)
	SCHED(Z17, Z18, Z10, Z15)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 40)
	SCHED(Z18, Z19, Z11, Z16)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 44)
	SCHED(Z19, Z20, Z12, Z17)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 48)
	SCHED(Z20, Z21, Z13, Z18)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 52)
	SCHED(Z21, Z22, Z14, Z19)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 56)
	SCHED(Z22, Z23, Z15, Z20)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 60)
	SCHED(Z23, Z8, Z16, Z21)

	ADDQ $64, AX
	DECQ DX
	JNZ  rounds

	// Rounds 48–63 need no further words.
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, 0)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z9, 4)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z10, 8)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z11, 12)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z12, 16)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z13, 20)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z14, 24)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z15, 28)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16, 32)
	ROUND(Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z17, 36)
	ROUND(Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z5, Z18, 40)
	ROUND(Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z4, Z19, 44)
	ROUND(Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, 48)
	ROUND(Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z21, 52)
	ROUND(Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z1, Z22, 56)
	ROUND(Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z0, Z23, 60)

	// Feed-forward, then the next block of every lane.
	VPADDD 0(SP), Z0, Z0
	VPADDD 64(SP), Z1, Z1
	VPADDD 128(SP), Z2, Z2
	VPADDD 192(SP), Z3, Z3
	VPADDD 256(SP), Z4, Z4
	VPADDD 320(SP), Z5, Z5
	VPADDD 384(SP), Z6, Z6
	VPADDD 448(SP), Z7, Z7
	ADDQ   $64, SI
	DECQ   CX
	JNZ    block

	// Byte-swap the state words and transpose the 8×16 words back to
	// one 32-byte digest per lane.
	VBROADCASTI32X4 flip_mask<>+0(SB), Z31
	VPSHUFB    Z31, Z0, Z0
	VPSHUFB    Z31, Z1, Z1
	VPSHUFB    Z31, Z2, Z2
	VPSHUFB    Z31, Z3, Z3
	VPSHUFB    Z31, Z4, Z4
	VPSHUFB    Z31, Z5, Z5
	VPSHUFB    Z31, Z6, Z6
	VPSHUFB    Z31, Z7, Z7
	VPUNPCKLDQ Z1, Z0, Z8
	VPUNPCKHDQ Z1, Z0, Z9
	VPUNPCKLDQ Z3, Z2, Z10
	VPUNPCKHDQ Z3, Z2, Z11
	VPUNPCKLDQ Z5, Z4, Z12
	VPUNPCKHDQ Z5, Z4, Z13
	VPUNPCKLDQ Z7, Z6, Z14
	VPUNPCKHDQ Z7, Z6, Z15
	VPUNPCKLQDQ Z10, Z8, Z16
	VPUNPCKHQDQ Z10, Z8, Z17
	VPUNPCKLQDQ Z11, Z9, Z18
	VPUNPCKHQDQ Z11, Z9, Z19
	VPUNPCKLQDQ Z14, Z12, Z20
	VPUNPCKHQDQ Z14, Z12, Z21
	VPUNPCKLQDQ Z15, Z13, Z22
	VPUNPCKHQDQ Z15, Z13, Z23
	VMOVDQU64  digest_lo<>+0(SB), Z29
	VMOVDQU64  digest_hi<>+0(SB), Z30
	VMOVDQA64  Z16, Z24
	VPERMT2Q   Z20, Z29, Z24
	VPERMT2Q   Z20, Z30, Z16
	VEXTRACTI64X4 $0, Z24, 0(DI)
	VEXTRACTI64X4 $1, Z24, 128(DI)
	VEXTRACTI64X4 $0, Z16, 256(DI)
	VEXTRACTI64X4 $1, Z16, 384(DI)
	VMOVDQA64  Z17, Z24
	VPERMT2Q   Z21, Z29, Z24
	VPERMT2Q   Z21, Z30, Z17
	VEXTRACTI64X4 $0, Z24, 32(DI)
	VEXTRACTI64X4 $1, Z24, 160(DI)
	VEXTRACTI64X4 $0, Z17, 288(DI)
	VEXTRACTI64X4 $1, Z17, 416(DI)
	VMOVDQA64  Z18, Z24
	VPERMT2Q   Z22, Z29, Z24
	VPERMT2Q   Z22, Z30, Z18
	VEXTRACTI64X4 $0, Z24, 64(DI)
	VEXTRACTI64X4 $1, Z24, 192(DI)
	VEXTRACTI64X4 $0, Z18, 320(DI)
	VEXTRACTI64X4 $1, Z18, 448(DI)
	VMOVDQA64  Z19, Z24
	VPERMT2Q   Z23, Z29, Z24
	VPERMT2Q   Z23, Z30, Z19
	VEXTRACTI64X4 $0, Z24, 96(DI)
	VEXTRACTI64X4 $1, Z24, 224(DI)
	VEXTRACTI64X4 $0, Z19, 352(DI)
	VEXTRACTI64X4 $1, Z19, 480(DI)
	VZEROUPPER
	RET

#undef T0
#undef T1
#undef T2
#undef T3

// digest_lo and digest_hi pick, from a lane group's words 0–3 (first
// table) and 4–7 (second), the digests of lanes m and 4+m, and of 8+m and
// 12+m: qword indices for VPERMT2Q.
DATA digest_lo<>+0(SB)/8, $0
DATA digest_lo<>+8(SB)/8, $1
DATA digest_lo<>+16(SB)/8, $8
DATA digest_lo<>+24(SB)/8, $9
DATA digest_lo<>+32(SB)/8, $2
DATA digest_lo<>+40(SB)/8, $3
DATA digest_lo<>+48(SB)/8, $10
DATA digest_lo<>+56(SB)/8, $11
GLOBL digest_lo<>(SB), RODATA|NOPTR, $64
DATA digest_hi<>+0(SB)/8, $4
DATA digest_hi<>+8(SB)/8, $5
DATA digest_hi<>+16(SB)/8, $12
DATA digest_hi<>+24(SB)/8, $13
DATA digest_hi<>+32(SB)/8, $6
DATA digest_hi<>+40(SB)/8, $7
DATA digest_hi<>+48(SB)/8, $14
DATA digest_hi<>+56(SB)/8, $15
GLOBL digest_hi<>(SB), RODATA|NOPTR, $64

// iv is the SHA-256 initial hash value H0 … H7.
DATA iv<>+0(SB)/4, $0x6a09e667
DATA iv<>+4(SB)/4, $0xbb67ae85
DATA iv<>+8(SB)/4, $0x3c6ef372
DATA iv<>+12(SB)/4, $0xa54ff53a
DATA iv<>+16(SB)/4, $0x510e527f
DATA iv<>+20(SB)/4, $0x9b05688c
DATA iv<>+24(SB)/4, $0x1f83d9ab
DATA iv<>+28(SB)/4, $0x5be0cd19
GLOBL iv<>(SB), RODATA|NOPTR, $32

// flip_mask reverses the bytes of each 32-bit word.
DATA flip_mask<>+0(SB)/8, $0x0405060700010203
DATA flip_mask<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip_mask<>(SB), RODATA|NOPTR, $16

// k256 is the 64 SHA-256 round constants, four per 16-byte row.
DATA k256<>+0(SB)/4, $0x428a2f98
DATA k256<>+4(SB)/4, $0x71374491
DATA k256<>+8(SB)/4, $0xb5c0fbcf
DATA k256<>+12(SB)/4, $0xe9b5dba5
DATA k256<>+16(SB)/4, $0x3956c25b
DATA k256<>+20(SB)/4, $0x59f111f1
DATA k256<>+24(SB)/4, $0x923f82a4
DATA k256<>+28(SB)/4, $0xab1c5ed5
DATA k256<>+32(SB)/4, $0xd807aa98
DATA k256<>+36(SB)/4, $0x12835b01
DATA k256<>+40(SB)/4, $0x243185be
DATA k256<>+44(SB)/4, $0x550c7dc3
DATA k256<>+48(SB)/4, $0x72be5d74
DATA k256<>+52(SB)/4, $0x80deb1fe
DATA k256<>+56(SB)/4, $0x9bdc06a7
DATA k256<>+60(SB)/4, $0xc19bf174
DATA k256<>+64(SB)/4, $0xe49b69c1
DATA k256<>+68(SB)/4, $0xefbe4786
DATA k256<>+72(SB)/4, $0x0fc19dc6
DATA k256<>+76(SB)/4, $0x240ca1cc
DATA k256<>+80(SB)/4, $0x2de92c6f
DATA k256<>+84(SB)/4, $0x4a7484aa
DATA k256<>+88(SB)/4, $0x5cb0a9dc
DATA k256<>+92(SB)/4, $0x76f988da
DATA k256<>+96(SB)/4, $0x983e5152
DATA k256<>+100(SB)/4, $0xa831c66d
DATA k256<>+104(SB)/4, $0xb00327c8
DATA k256<>+108(SB)/4, $0xbf597fc7
DATA k256<>+112(SB)/4, $0xc6e00bf3
DATA k256<>+116(SB)/4, $0xd5a79147
DATA k256<>+120(SB)/4, $0x06ca6351
DATA k256<>+124(SB)/4, $0x14292967
DATA k256<>+128(SB)/4, $0x27b70a85
DATA k256<>+132(SB)/4, $0x2e1b2138
DATA k256<>+136(SB)/4, $0x4d2c6dfc
DATA k256<>+140(SB)/4, $0x53380d13
DATA k256<>+144(SB)/4, $0x650a7354
DATA k256<>+148(SB)/4, $0x766a0abb
DATA k256<>+152(SB)/4, $0x81c2c92e
DATA k256<>+156(SB)/4, $0x92722c85
DATA k256<>+160(SB)/4, $0xa2bfe8a1
DATA k256<>+164(SB)/4, $0xa81a664b
DATA k256<>+168(SB)/4, $0xc24b8b70
DATA k256<>+172(SB)/4, $0xc76c51a3
DATA k256<>+176(SB)/4, $0xd192e819
DATA k256<>+180(SB)/4, $0xd6990624
DATA k256<>+184(SB)/4, $0xf40e3585
DATA k256<>+188(SB)/4, $0x106aa070
DATA k256<>+192(SB)/4, $0x19a4c116
DATA k256<>+196(SB)/4, $0x1e376c08
DATA k256<>+200(SB)/4, $0x2748774c
DATA k256<>+204(SB)/4, $0x34b0bcb5
DATA k256<>+208(SB)/4, $0x391c0cb3
DATA k256<>+212(SB)/4, $0x4ed8aa4a
DATA k256<>+216(SB)/4, $0x5b9cca4f
DATA k256<>+220(SB)/4, $0x682e6ff3
DATA k256<>+224(SB)/4, $0x748f82ee
DATA k256<>+228(SB)/4, $0x78a5636f
DATA k256<>+232(SB)/4, $0x84c87814
DATA k256<>+236(SB)/4, $0x8cc70208
DATA k256<>+240(SB)/4, $0x90befffa
DATA k256<>+244(SB)/4, $0xa4506ceb
DATA k256<>+248(SB)/4, $0xbef9a3f7
DATA k256<>+252(SB)/4, $0xc67178f2
GLOBL k256<>(SB), RODATA|NOPTR, $256
