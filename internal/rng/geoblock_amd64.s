// AVX-512 draw kernel: up to eight geometric skips per call, turned
// straight into the action slots a SlotSchedule would place. The
// xoshiro steps run on the integer ports; the eight log tails run as
// one zmm chain.
//
// The log is fdlibm's formula (logPortable's operation order) with the
// multiply-adds fused, so a lane may differ from math.Log by a few ulp.
// The skip it yields is floor(q) for q = l·(1/lnQ), whose relative
// error against the scalar l/lnQ is then below ~1.4e-15. A lane is
// decided by the kernel only when q sits further than 1e-13·q + 1e-13
// from every integer — about 70× that budget — so both quotients share
// a floor; a lane at or past length+1 lies outside the phase whatever
// its exact value (the clamp below), which covers the MaxInt sentinel
// band too. Any other lane makes the kernel return -1 with the stream
// state untouched, and the Go caller redoes the whole call with the
// exact log and the scalar's division. geoBlock8SelfCheck verifies the
// log's error budget and the slots bit-for-bit at start-up, before
// this kernel is ever used.

#include "textflag.h"

DATA kMantMask<>+0(SB)/8, $0x000FFFFFFFFFFFFF
GLOBL kMantMask<>(SB), RODATA|NOPTR, $8
DATA kSqrtMant<>+0(SB)/8, $0x0006A09E667F3BCD
GLOBL kSqrtMant<>(SB), RODATA|NOPTR, $8
// 0x3FE doubles as the rebuilt-exponent base and the Frexp bias 1022.
DATA kExp3FE<>+0(SB)/8, $0x00000000000003FE
GLOBL kExp3FE<>(SB), RODATA|NOPTR, $8
DATA kInt1<>+0(SB)/8, $1
GLOBL kInt1<>(SB), RODATA|NOPTR, $8
DATA kOne<>+0(SB)/8, $0x3FF0000000000000
GLOBL kOne<>(SB), RODATA|NOPTR, $8
DATA kTwo<>+0(SB)/8, $0x4000000000000000
GLOBL kTwo<>(SB), RODATA|NOPTR, $8
DATA kHalf<>+0(SB)/8, $0x3FE0000000000000
GLOBL kHalf<>(SB), RODATA|NOPTR, $8
DATA kInv53<>+0(SB)/8, $0x3CA0000000000000
GLOBL kInv53<>(SB), RODATA|NOPTR, $8
DATA kLn2Hi<>+0(SB)/8, $0x3FE62E42FEE00000
GLOBL kLn2Hi<>(SB), RODATA|NOPTR, $8
DATA kLn2Lo<>+0(SB)/8, $0x3DEA39EF35793C76
GLOBL kLn2Lo<>(SB), RODATA|NOPTR, $8
DATA kL1<>+0(SB)/8, $0x3FE5555555555593
GLOBL kL1<>(SB), RODATA|NOPTR, $8
DATA kL2<>+0(SB)/8, $0x3FD999999997FA04
GLOBL kL2<>(SB), RODATA|NOPTR, $8
DATA kL3<>+0(SB)/8, $0x3FD2492494229359
GLOBL kL3<>(SB), RODATA|NOPTR, $8
DATA kL4<>+0(SB)/8, $0x3FCC71C51D8E78AF
GLOBL kL4<>(SB), RODATA|NOPTR, $8
DATA kL5<>+0(SB)/8, $0x3FC7466496CB03DE
GLOBL kL5<>(SB), RODATA|NOPTR, $8
DATA kL6<>+0(SB)/8, $0x3FC39A09D078C69F
GLOBL kL6<>(SB), RODATA|NOPTR, $8
DATA kL7<>+0(SB)/8, $0x3FC2F112DF3E5244
GLOBL kL7<>(SB), RODATA|NOPTR, $8
DATA kAbsMask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL kAbsMask<>(SB), RODATA|NOPTR, $8
// 1e-13: the near-integer uncertainty margin, ~70× the worst-case
// relative error between the kernel's quotient and the scalar's.
DATA kMargin<>+0(SB)/8, $0x3D3C25C268497682
GLOBL kMargin<>(SB), RODATA|NOPTR, $8

// One xoshiro256** step on the state in R8-R11, leaving the 53-bit
// output in AX. Mirrors Stream.u53: raw uses the pre-update s1; the
// state update order is s2^=s0, s3^=s1, s1^=s2, s0^=s3, s2^=t,
// s3=rotl(s3,45).
#define XOSHIRO_STEP \
	MOVQ R9, AX;         \
	LEAQ (AX)(AX*4), AX; \
	ROLQ $7, AX;         \
	LEAQ (AX)(AX*8), AX; \
	SHRQ $11, AX;        \
	MOVQ R9, DX;         \
	SHLQ $17, DX;        \
	XORQ R8, R10;        \
	XORQ R9, R11;        \
	XORQ R10, R9;        \
	XORQ R11, R8;        \
	XORQ DX, R10;        \
	ROLQ $45, R11

// LOG8 evaluates the fdlibm log of the eight uniforms in Z0 into Z11,
// clobbering Z1-Z12: reduce() as integer ops on the double bits (the
// branch-free √2/2 adjustment), then the fdlibm polynomial with FMA.
#define LOG8 \
	VPANDQ.BCST kMantMask<>(SB), Z0, Z1;   \
	VPSUBQ.BCST kSqrtMant<>(SB), Z1, Z3;   \
	VPSRLQ $63, Z3, Z3;                    \
	VPADDQ.BCST kExp3FE<>(SB), Z3, Z4;     \
	VPSLLQ $52, Z4, Z4;                    \
	VPORQ Z1, Z4, Z4;                      \
	VSUBPD.BCST kOne<>(SB), Z4, Z4;        \
	VPSRLQ $52, Z0, Z5;                    \
	VPADDQ.BCST kExp3FE<>(SB), Z3, Z6;     \
	VPSUBQ Z6, Z5, Z5;                     \
	VCVTQQ2PD Z5, Z5;                      \
	VADDPD.BCST kTwo<>(SB), Z4, Z6;        \
	VDIVPD Z6, Z4, Z6;                     \
	VMULPD Z6, Z6, Z7;                     \
	VMULPD Z7, Z7, Z8;                     \
	VBROADCASTSD kL7<>(SB), Z9;            \
	VFMADD213PD.BCST kL5<>(SB), Z8, Z9;    \
	VFMADD213PD.BCST kL3<>(SB), Z8, Z9;    \
	VFMADD213PD.BCST kL1<>(SB), Z8, Z9;    \
	VMULPD Z7, Z9, Z9;                     \
	VBROADCASTSD kL6<>(SB), Z10;           \
	VFMADD213PD.BCST kL4<>(SB), Z8, Z10;   \
	VFMADD213PD.BCST kL2<>(SB), Z8, Z10;   \
	VFMADD231PD Z10, Z8, Z9;               \
	VMULPD.BCST kHalf<>(SB), Z4, Z10;      \
	VMULPD Z4, Z10, Z10;                   \
	VADDPD Z9, Z10, Z11;                   \
	VMULPD.BCST kLn2Lo<>(SB), Z5, Z12;     \
	VFMADD231PD Z11, Z6, Z12;              \
	VSUBPD Z12, Z10, Z11;                  \
	VSUBPD Z4, Z11, Z11;                   \
	VFMSUB231PD.BCST kLn2Hi<>(SB), Z5, Z11

// func geoSlots8Asm(s *[4]uint64, dst *int32, k, pos, length int, invLnQ float64) (n, next int)
TEXT ·geoSlots8Asm(SB), NOSPLIT, $0-64
	MOVQ s+0(FP), SI
	MOVQ k+16(FP), CX
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11

	// Lanes past k stay zero: their uniform becomes 2^-53, a normal
	// number the log chain handles at full speed, and the k mask drops
	// them from every result.
	VPXOR X1, X1, X1
	VPXOR X2, X2, X2
	VPXOR X3, X3, X3

	XOSHIRO_STEP
	VMOVQ AX, X0
	CMPQ CX, $1
	JEQ  drawn
	XOSHIRO_STEP
	VPINSRQ $1, AX, X0, X0
	CMPQ CX, $2
	JEQ  drawn
	XOSHIRO_STEP
	VMOVQ AX, X1
	CMPQ CX, $3
	JEQ  drawn
	XOSHIRO_STEP
	VPINSRQ $1, AX, X1, X1
	CMPQ CX, $4
	JEQ  drawn
	XOSHIRO_STEP
	VMOVQ AX, X2
	CMPQ CX, $5
	JEQ  drawn
	XOSHIRO_STEP
	VPINSRQ $1, AX, X2, X2
	CMPQ CX, $6
	JEQ  drawn
	XOSHIRO_STEP
	VMOVQ AX, X3
	CMPQ CX, $7
	JEQ  drawn
	XOSHIRO_STEP
	VPINSRQ $1, AX, X3, X3

drawn:
	// K1 = the k live lanes.
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVB BX, K1

	// 53-bit draws -> uniforms (exact; raw < 2^53), with u == 0 nudged
	// to 2^-53: every other uniform is at least that.
	VINSERTI64X2 $1, X1, Z0, Z0
	VINSERTI64X2 $2, X2, Z0, Z0
	VINSERTI64X2 $3, X3, Z0, Z0
	VCVTQQ2PD    Z0, Z0
	VMULPD.BCST  kInv53<>(SB), Z0, Z0
	VMAXPD.BCST  kInv53<>(SB), Z0, Z0

	LOG8

	VBROADCASTSD invLnQ+40(FP), Z13
	VMULPD       Z13, Z11, Z11

	// K2 = live lanes whose floor the estimate cannot decide: within the
	// margin of an integer and below length+1.
	MOVQ          length+32(FP), BX
	VCVTSI2SDQ    BX, X5, X5
	VBROADCASTSD  X5, Z5
	VADDPD.BCST   kOne<>(SB), Z5, Z6
	VREDUCEPD     $0, Z11, Z3
	VPANDQ.BCST   kAbsMask<>(SB), Z3, Z3
	VBROADCASTSD  kMargin<>(SB), Z4
	VFMADD213PD   Z4, Z11, Z4
	VCMPPD        $0x12, Z4, Z3, K1, K2
	VCMPPD        $0x11, Z6, Z11, K2, K2
	KORTESTB      K2, K2
	JNZ           exact

	// Gaps clamped to length, plus one, summed from pos: lane j's slot
	// is pos-1 + Σ_{i<=j} (min(g_i, length) + 1).
	VMINPD       Z5, Z11, Z11
	VCVTTPD2QQ   Z11, Z11
	VPADDQ.BCST  kInt1<>(SB), Z11, Z11
	VPXORQ       Z2, Z2, Z2
	VALIGNQ      $7, Z2, Z11, Z3
	VPADDQ       Z3, Z11, Z11
	VALIGNQ      $6, Z2, Z11, Z3
	VPADDQ       Z3, Z11, Z11
	VALIGNQ      $4, Z2, Z11, Z3
	VPADDQ       Z3, Z11, Z11
	MOVQ         pos+24(FP), AX
	DECQ         AX
	VPBROADCASTQ AX, Z3
	VPADDQ       Z3, Z11, Z11

	// Slots ascend, so the live lanes inside the phase are a prefix.
	VPBROADCASTQ BX, Z3
	VPCMPQ       $1, Z3, Z11, K1, K3
	MOVQ         dst+8(FP), DI
	VPMOVQD      Z11, K3, (DI)
	KMOVB        K3, AX
	POPCNTL      AX, AX
	MOVQ         AX, n+48(FP)

	// next = slot[n-1] + 1, from the register: the caller chains it
	// into its next call, and a load of the masked store above would
	// wait for the store to commit.
	LEAQ         -1(AX), DX
	VPBROADCASTQ DX, Z3
	VPERMQ       Z11, Z3, Z3
	VMOVQ        X3, DX
	INCQ         DX
	MOVQ         DX, next+56(FP)
	MOVQ         R8, 0(SI)
	MOVQ         R9, 8(SI)
	MOVQ         R10, 16(SI)
	MOVQ         R11, 24(SI)
	VZEROUPPER
	RET

exact:
	MOVQ $-1, n+48(FP)
	MOVQ $0, next+56(FP)
	VZEROUPPER
	RET

// The lane kernel: eight schedules side by side, one per lane, each with
// its own stream, 1/lnQ, pos and length (laneState). Its xoshiro state
// sits word-major in Z16-Z19, so one step is a dozen zmm ops for all
// eight streams, and each of the k (up to 16) iterations feeds one draw
// per lane through LOG8. The quotient, the margin test and the clamp are
// geoSlots8Asm's, lane by lane; each lane keeps its own pos, so no
// prefix sum is needed. The iterations run in rounds of eight: iteration
// i's slot column goes to half i%2 of the accumulator for i/2 (Z29,
// Z30, Z31, Z15), and at the end of a round one 8×8 dword transpose
// (two VPERMI2D stages) turns the columns into per-lane rows.

// Transpose indices. Stage one gathers lanes 0-3 (kTrLo) or 4-7 (kTrHi)
// of four columns, draw-minor; stage two gathers two lanes' eight
// draws, lanes 0-1 of each half (kTrPairA) or 2-3 (kTrPairB).
DATA kTrLo<>+0(SB)/8, $0x0000000800000000
DATA kTrLo<>+8(SB)/8, $0x0000001800000010
DATA kTrLo<>+16(SB)/8, $0x0000000900000001
DATA kTrLo<>+24(SB)/8, $0x0000001900000011
DATA kTrLo<>+32(SB)/8, $0x0000000A00000002
DATA kTrLo<>+40(SB)/8, $0x0000001A00000012
DATA kTrLo<>+48(SB)/8, $0x0000000B00000003
DATA kTrLo<>+56(SB)/8, $0x0000001B00000013
GLOBL kTrLo<>(SB), RODATA|NOPTR, $64
DATA kTrHi<>+0(SB)/8, $0x0000000C00000004
DATA kTrHi<>+8(SB)/8, $0x0000001C00000014
DATA kTrHi<>+16(SB)/8, $0x0000000D00000005
DATA kTrHi<>+24(SB)/8, $0x0000001D00000015
DATA kTrHi<>+32(SB)/8, $0x0000000E00000006
DATA kTrHi<>+40(SB)/8, $0x0000001E00000016
DATA kTrHi<>+48(SB)/8, $0x0000000F00000007
DATA kTrHi<>+56(SB)/8, $0x0000001F00000017
GLOBL kTrHi<>(SB), RODATA|NOPTR, $64
DATA kTrPairA<>+0(SB)/8, $0x0000000100000000
DATA kTrPairA<>+8(SB)/8, $0x0000000300000002
DATA kTrPairA<>+16(SB)/8, $0x0000001100000010
DATA kTrPairA<>+24(SB)/8, $0x0000001300000012
DATA kTrPairA<>+32(SB)/8, $0x0000000500000004
DATA kTrPairA<>+40(SB)/8, $0x0000000700000006
DATA kTrPairA<>+48(SB)/8, $0x0000001500000014
DATA kTrPairA<>+56(SB)/8, $0x0000001700000016
GLOBL kTrPairA<>(SB), RODATA|NOPTR, $64
DATA kTrPairB<>+0(SB)/8, $0x0000000900000008
DATA kTrPairB<>+8(SB)/8, $0x0000000B0000000A
DATA kTrPairB<>+16(SB)/8, $0x0000001900000018
DATA kTrPairB<>+24(SB)/8, $0x0000001B0000001A
DATA kTrPairB<>+32(SB)/8, $0x0000000D0000000C
DATA kTrPairB<>+40(SB)/8, $0x0000000F0000000E
DATA kTrPairB<>+48(SB)/8, $0x0000001D0000001C
DATA kTrPairB<>+56(SB)/8, $0x0000001F0000001E
GLOBL kTrPairB<>(SB), RODATA|NOPTR, $64

// LANE_DRAW draws one skip per lane and places it: Z5 = pos + min(q,
// length) truncated, pos = Z5 + 1. K2 collects the live lanes (K1) whose
// floor the estimate cannot decide; Z25 counts each live lane's slots
// inside the phase, a prefix because slots ascend.
#define LANE_DRAW \
	VPSLLQ      $2, Z17, Z0;                 \
	VPADDQ      Z17, Z0, Z0;                 \
	VPROLQ      $7, Z0, Z0;                  \
	VPSLLQ      $3, Z0, Z1;                  \
	VPADDQ      Z1, Z0, Z0;                  \
	VPSRLQ      $11, Z0, Z0;                 \
	VPSLLQ      $17, Z17, Z1;                \
	VPXORQ      Z16, Z18, Z18;               \
	VPXORQ      Z17, Z19, Z19;               \
	VPXORQ      Z18, Z17, Z17;               \
	VPXORQ      Z19, Z16, Z16;               \
	VPXORQ      Z1, Z18, Z18;                \
	VPROLQ      $45, Z19, Z19;               \
	VCVTQQ2PD   Z0, Z0;                      \
	VMULPD      Z28, Z0, Z0;                 \
	VMAXPD      Z28, Z0, Z0;                 \
	LOG8;                                    \
	VMULPD      Z20, Z11, Z11;               \
	VREDUCEPD   $0, Z11, Z3;                 \
	VPANDQ.BCST kAbsMask<>(SB), Z3, Z3;      \
	VMOVAPD     Z26, Z4;                     \
	VFMADD213PD Z26, Z11, Z4;                \
	VCMPPD      $0x12, Z4, Z3, K1, K3;       \
	VCMPPD      $0x11, Z24, Z11, K3, K3;     \
	KORB        K3, K2, K2;                  \
	VMINPD      Z23, Z11, Z11;               \
	VCVTTPD2QQ  Z11, Z11;                    \
	VPADDQ      Z11, Z21, Z5;                \
	VPADDQ      Z27, Z5, Z21;                \
	VPCMPQ      $1, Z22, Z5, K1, K3;         \
	VPADDQ      Z27, Z25, K3, Z25

// func laneSlots8Asm(ls *laneState, dst *[8][16]int32, live int) (ended uint8, ok bool)
TEXT ·laneSlots8Asm(SB), NOSPLIT, $0-26
	MOVQ  ls+0(FP), SI
	MOVQ  dst+8(FP), DI
	MOVQ  live+16(FP), BX
	KMOVB BX, K1

	VMOVDQU64    0(SI), Z16
	VMOVDQU64    64(SI), Z17
	VMOVDQU64    128(SI), Z18
	VMOVDQU64    192(SI), Z19
	VMOVUPD      256(SI), Z20
	VMOVDQU64    384(SI), Z21
	VMOVDQU64    448(SI), Z22
	VCVTQQ2PD    Z22, Z23
	VADDPD.BCST  kOne<>(SB), Z23, Z24
	VBROADCASTSD kMargin<>(SB), Z26
	VPBROADCASTQ kInt1<>(SB), Z27
	VBROADCASTSD kInv53<>(SB), Z28
	VPXORQ       Z25, Z25, Z25
	KXORB        K2, K2, K2

	// k, the block length: the live lanes' largest expected remaining
	// actions plus one, int(p·(length-pos))+1, clamped to [2, 16].
	VPSUBQ         Z21, Z22, Z0
	VCVTQQ2PD      Z0, Z0
	VMULPD         320(SI), Z0, Z0
	VCVTTPD2QQ     Z0, Z0
	VPADDQ         Z27, Z0, K1, Z25
	VPERMQ         $0x4E, Z25, Z1
	VPMAXSQ        Z1, Z25, Z25
	VPERMQ         $0xB1, Z25, Z1
	VPMAXSQ        Z1, Z25, Z25
	VSHUFI64X2     $0x4E, Z25, Z25, Z1
	VPMAXSQ        Z1, Z25, Z25
	VMOVQ          X25, CX
	MOVQ           $2, AX
	CMPQ           CX, AX
	CMOVQLT        AX, CX
	MOVQ           $16, AX
	CMPQ           CX, AX
	CMOVQGT        AX, CX
	MOVQ           CX, DX
	VPXORQ         Z25, Z25, Z25

	// Rounds of up to eight draws: each ends with its columns turned
	// into rows, stored at the next eight slots of every lane's row.
lanesRound:
	LANE_DRAW
	VPMOVQD Z5, Y29
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y13
	VINSERTI64X4 $1, Y13, Z29, Z29
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y30
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y13
	VINSERTI64X4 $1, Y13, Z30, Z30
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y31
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y13
	VINSERTI64X4 $1, Y13, Z31, Z31
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y15
	DECQ    CX
	JZ      lanesRoundDone
	LANE_DRAW
	VPMOVQD Z5, Y13
	VINSERTI64X4 $1, Y13, Z15, Z15
	DECQ    CX

lanesRoundDone:
	// Columns to rows: lane j's draws of this round at dst[j][8r:8r+8].
	VMOVDQU64     kTrLo<>(SB), Z0
	VPERMI2D      Z30, Z29, Z0
	VMOVDQU64     kTrHi<>(SB), Z1
	VPERMI2D      Z30, Z29, Z1
	VMOVDQU64     kTrLo<>(SB), Z2
	VPERMI2D      Z15, Z31, Z2
	VMOVDQU64     kTrHi<>(SB), Z3
	VPERMI2D      Z15, Z31, Z3
	VMOVDQU64     kTrPairA<>(SB), Z4
	VPERMI2D      Z2, Z0, Z4
	VMOVDQU64     kTrPairB<>(SB), Z5
	VPERMI2D      Z2, Z0, Z5
	VMOVDQU64     kTrPairA<>(SB), Z6
	VPERMI2D      Z3, Z1, Z6
	VMOVDQU64     kTrPairB<>(SB), Z7
	VPERMI2D      Z3, Z1, Z7
	VMOVDQU       Y4, 0(DI)
	VEXTRACTI64X4 $1, Z4, 64(DI)
	VMOVDQU       Y5, 128(DI)
	VEXTRACTI64X4 $1, Z5, 192(DI)
	VMOVDQU       Y6, 256(DI)
	VEXTRACTI64X4 $1, Z6, 320(DI)
	VMOVDQU       Y7, 384(DI)
	VEXTRACTI64X4 $1, Z7, 448(DI)
	TESTQ         CX, CX
	JZ            lanesDrawn
	ADDQ          $32, DI
	JMP           lanesRound

lanesDrawn:
	KORTESTB K2, K2
	JNZ      lanesExact

	// ended: live lanes with a slot outside the phase (fewer than k
	// inside) or whose last slot was the phase's last.
	VPBROADCASTQ DX, Z0
	VPCMPQ       $1, Z0, Z25, K1, K3
	VPCMPQ       $5, Z22, Z21, K1, K4
	KORB         K4, K3, K3
	KMOVB        K3, AX
	MOVB         AX, ended+24(FP)

	// Live lanes keep their stream and pos; every lane gets its count.
	VMOVDQU64 Z16, K1, 0(SI)
	VMOVDQU64 Z17, K1, 64(SI)
	VMOVDQU64 Z18, K1, 128(SI)
	VMOVDQU64 Z19, K1, 192(SI)
	VMOVDQU64 Z21, K1, 384(SI)
	VMOVDQU64 Z25, 512(SI)
	MOVB      $1, ok+25(FP)
	VZEROUPPER
	RET

lanesExact:
	MOVB $0, ended+24(FP)
	MOVB $0, ok+25(FP)
	VZEROUPPER
	RET

// The lane bit-gather: for each lane, the bits of a word array at the
// slots the lane kernel (or the Go path) placed in the last Draw. Each
// lane's row of 16 dword slots becomes 16 dword indices (slot>>5, words
// read as little-endian dwords) and shifts (slot&31); one VPGATHERDD,
// masked by the lane's count, loads the dwords, and VPSRLVD + VPTESTMD
// turn them into the lane's 16-bit mask. Slots past a lane's count are
// stale and may index anywhere: the count mask keeps them from being
// loaded at all.

DATA kIota16<>+0(SB)/8, $0x0000000100000000
DATA kIota16<>+8(SB)/8, $0x0000000300000002
DATA kIota16<>+16(SB)/8, $0x0000000500000004
DATA kIota16<>+24(SB)/8, $0x0000000700000006
DATA kIota16<>+32(SB)/8, $0x0000000900000008
DATA kIota16<>+40(SB)/8, $0x0000000B0000000A
DATA kIota16<>+48(SB)/8, $0x0000000D0000000C
DATA kIota16<>+56(SB)/8, $0x0000000F0000000E
GLOBL kIota16<>(SB), RODATA|NOPTR, $64
DATA kDword31<>+0(SB)/4, $31
GLOBL kDword31<>(SB), RODATA|NOPTR, $4
DATA kDword1<>+0(SB)/4, $1
GLOBL kDword1<>(SB), RODATA|NOPTR, $4

// func laneBits8Asm(ls *laneState, slots *[8][laneBlock]int32, words *uint64, limit int, out *[8]uint16) (ok bool)
TEXT ·laneBits8Asm(SB), NOSPLIT, $0-41
	MOVQ ls+0(FP), SI
	MOVQ slots+8(FP), DI
	MOVQ words+16(FP), R8
	MOVQ out+32(FP), R9

	// Every lane with a count must have its phase inside the words:
	// its counted slots lie below its length.
	VMOVDQU64    512(SI), Z0
	VPTESTMQ     Z0, Z0, K1
	VMOVDQU64    448(SI), Z1
	VPBROADCASTQ limit+24(FP), Z2
	VPCMPQ       $6, Z2, Z1, K1, K2
	KORTESTB     K2, K2
	JNZ          bitsShort

	VMOVDQU32      kIota16<>(SB), Z3
	VPBROADCASTD   kDword31<>(SB), Z4
	VPBROADCASTD   kDword1<>(SB), Z5
	LEAQ           512(SI), R10
	MOVQ           $8, CX

bitsLane:
	VPBROADCASTD (R10), Z6
	VPCMPUD      $1, Z6, Z3, K1
	KMOVW        K1, K2
	VMOVDQU32    (DI), Z7
	VPSRLD       $5, Z7, Z8
	VPANDD       Z4, Z7, Z7
	VPXORD       Z9, Z9, Z9
	VPGATHERDD   (R8)(Z8*4), K1, Z9
	VPSRLVD      Z7, Z9, Z9
	VPTESTMD     Z5, Z9, K2, K3
	KMOVW        K3, AX
	MOVW         AX, (R9)
	ADDQ         $64, DI
	ADDQ         $8, R10
	ADDQ         $2, R9
	DECQ         CX
	JNZ          bitsLane

	MOVB $1, ok+40(FP)
	VZEROUPPER
	RET

bitsShort:
	MOVB $0, ok+40(FP)
	VZEROUPPER
	RET

// func log8Asm(u, l *[8]float64)
TEXT ·log8Asm(SB), NOSPLIT, $0-16
	MOVQ    u+0(FP), SI
	VMOVUPD (SI), Z0
	LOG8
	MOVQ    l+8(FP), DI
	VMOVUPD Z11, (DI)
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
