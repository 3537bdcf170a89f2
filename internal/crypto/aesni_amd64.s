//go:build !purego

#include "textflag.h"

// The AES-128 kernel behind CTREngine.Pad. The key expansion follows the
// 128-bit path of expandKeyAsm in the Go distribution's
// crypto/internal/fips140/aes/aes_amd64.s (Copyright The Go Authors;
// BSD-style license, see the Go distribution's LICENSE file), with its
// helper inlined as a macro and the decryption schedule left out.

// func hasAESNI() bool
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	BTL   $25, CX
	SETCS ret+0(FP)
	RET

// EXPAND derives the next round key in X0 from the previous one, with X4
// zero on entry, and stores it at (BX), advancing BX.
#define EXPAND(rcon) \
	AESKEYGENASSIST $rcon, X0, X1; \
	PSHUFD          $0xff, X1, X1; \
	SHUFPS          $0x10, X0, X4; \
	PXOR            X4, X0; \
	SHUFPS          $0x8c, X0, X4; \
	PXOR            X4, X0; \
	PXOR            X1, X0; \
	MOVUPS          X0, (BX); \
	ADDQ            $0x10, BX

// func expandKey128(key *[16]byte, rk *roundKeys)
// Requires: AES, SSE, SSE2
TEXT ·expandKey128(SB), NOSPLIT, $0-16
	MOVQ   key+0(FP), AX
	MOVQ   rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	ADDQ   $0x10, BX
	PXOR   X4, X4
	EXPAND(0x01)
	EXPAND(0x02)
	EXPAND(0x04)
	EXPAND(0x08)
	EXPAND(0x10)
	EXPAND(0x20)
	EXPAND(0x40)
	EXPAND(0x80)
	EXPAND(0x1b)
	EXPAND(0x36)
	RET

// ROUND applies the round key at off(AX) to all four lanes, so the four
// AESENCs of a round are independent and issue back to back.
#define ROUND(off) \
	MOVUPS off(AX), X4; \
	AESENC X4, X0; \
	AESENC X4, X1; \
	AESENC X4, X2; \
	AESENC X4, X3

// func encrypt4(rk *roundKeys, dst, src *[64]byte)
// Requires: AES, SSE, SSE2
TEXT ·encrypt4(SB), NOSPLIT, $0-24
	MOVQ   rk+0(FP), AX
	MOVQ   dst+8(FP), DX
	MOVQ   src+16(FP), BX
	MOVUPS (AX), X4
	MOVUPS (BX), X0
	MOVUPS 16(BX), X1
	MOVUPS 32(BX), X2
	MOVUPS 48(BX), X3
	PXOR   X4, X0
	PXOR   X4, X1
	PXOR   X4, X2
	PXOR   X4, X3
	ROUND(16)
	ROUND(32)
	ROUND(48)
	ROUND(64)
	ROUND(80)
	ROUND(96)
	ROUND(112)
	ROUND(128)
	ROUND(144)
	MOVUPS     160(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	AESENCLAST X4, X2
	AESENCLAST X4, X3
	MOVUPS     X0, (DX)
	MOVUPS     X1, 16(DX)
	MOVUPS     X2, 32(DX)
	MOVUPS     X3, 48(DX)
	RET
