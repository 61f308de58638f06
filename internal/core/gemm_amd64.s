#include "textflag.h"

// func addRows4AVX(s *float64, n int, codes *int8, stride int, w0, w1, w2, w3 float64)
//
// For j in [0, n): s[j] += c0[j]·w0, then c1[j]·w1, c2[j]·w2, c3[j]·w3,
// where row r starts at codes + r·stride. Each lane converts its code
// exactly, multiplies with one rounding and adds with one rounding, in row
// order, as the Go loop does for one column; nothing is fused. Four
// columns per step in 256-bit AVX, the last n mod 4 in scalar SSE2.
TEXT ·addRows4AVX(SB), NOSPLIT, $0-64
	MOVQ s+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ codes+16(FP), SI
	MOVQ stride+24(FP), DX
	LEAQ (SI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	VBROADCASTSD w0+32(FP), Y0
	VBROADCASTSD w1+40(FP), Y1
	VBROADCASTSD w2+48(FP), Y2
	VBROADCASTSD w3+56(FP), Y3
	CMPQ CX, $4
	JLT  tail

loop4:
	VMOVUPD   (DI), Y8
	VPMOVSXBD (SI), X4
	VCVTDQ2PD X4, Y4
	VMULPD    Y0, Y4, Y4
	VADDPD    Y4, Y8, Y8
	VPMOVSXBD (R8), X5
	VCVTDQ2PD X5, Y5
	VMULPD    Y1, Y5, Y5
	VADDPD    Y5, Y8, Y8
	VPMOVSXBD (R9), X6
	VCVTDQ2PD X6, Y6
	VMULPD    Y2, Y6, Y6
	VADDPD    Y6, Y8, Y8
	VPMOVSXBD (R10), X7
	VCVTDQ2PD X7, Y7
	VMULPD    Y3, Y7, Y7
	VADDPD    Y7, Y8, Y8
	VMOVUPD   Y8, (DI)
	ADDQ      $32, DI
	ADDQ      $4, SI
	ADDQ      $4, R8
	ADDQ      $4, R9
	ADDQ      $4, R10
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       loop4

tail:
	// The low lanes of X0..X3 keep w0..w3.
	VZEROUPPER
	TESTQ CX, CX
	JEQ   done

loop1:
	MOVSD    (DI), X8
	MOVBQSX  (SI), AX
	CVTSQ2SD AX, X4
	MULSD    X0, X4
	ADDSD    X4, X8
	MOVBQSX  (R8), AX
	CVTSQ2SD AX, X5
	MULSD    X1, X5
	ADDSD    X5, X8
	MOVBQSX  (R9), AX
	CVTSQ2SD AX, X6
	MULSD    X2, X6
	ADDSD    X6, X8
	MOVBQSX  (R10), AX
	CVTSQ2SD AX, X7
	MULSD    X3, X7
	ADDSD    X7, X8
	MOVSD    X8, (DI)
	ADDQ     $8, DI
	INCQ     SI
	INCQ     R8
	INCQ     R9
	INCQ     R10
	DECQ     CX
	JNE      loop1

done:
	RET

// func hasAVX() bool
//
// CPUID leaf 1 must report OSXSAVE (ECX bit 27) and AVX (bit 28), and
// XCR0 must show that the OS saves the XMM (bit 1) and YMM (bit 2) state.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
