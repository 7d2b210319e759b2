#include "textflag.h"

// func axpyNeg(y, x []float64, p float64)
TEXT ·axpyNeg(SB), NOSPLIT, $0-56
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), CX
	MOVQ  x_base+24(FP), SI
	MOVSD p+48(FP), X0
	UNPCKLPD X0, X0       // X0 = [p, p]
	CMPQ  CX, $8
	JLT   tail

body:                     // eight elements per iteration, unaligned
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X5
	MOVUPD 48(SI), X6
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X5
	MULPD  X0, X6
	MOVUPD (DI), X3
	MOVUPD 16(DI), X4
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	SUBPD  X1, X3
	SUBPD  X2, X4
	SUBPD  X5, X7
	SUBPD  X6, X8
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    body

tail:
	TESTQ CX, CX
	JEQ   done

scalar:
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X3
	SUBSD X1, X3
	MOVSD X3, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   scalar

done:
	RET
