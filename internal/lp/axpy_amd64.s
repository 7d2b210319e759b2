#include "textflag.h"

// func axpyNegAVX2(y, x []float64, p float64)
TEXT ·axpyNegAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD p+48(FP), Y0 // Y0 = [p, p, p, p]
	CMPQ         CX, $16
	JLT          tail

body:                             // sixteen elements per iteration, unaligned
	VMULPD  (SI), Y0, Y1          // Y1 = x*p, rounded
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMOVUPD (DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VSUBPD  Y1, Y5, Y5            // Y5 = y - x*p, rounded
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y5, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y7, 64(DI)
	VMOVUPD Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     body

tail:
	TESTQ CX, CX
	JEQ   done

scalar:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X5
	VSUBSD X1, X5, X5
	VMOVSD X5, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    scalar

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
