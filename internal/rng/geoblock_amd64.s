// AVX-512 draw kernels: up to eight geometric skips of one stream per
// call (geoSlots8Asm), or a block of skips for each of eight streams
// (laneSlots8Asm), turned straight into the action slots a SlotSchedule
// would place. The xoshiro steps run on the integer ports; the log tails
// run eight lanes to a zmm register.
//
// The log is table-driven and has no divide. The uniform is u = x·2^-53
// for x the 53-bit draw as a double (0 nudged to 1). VGETMANTPD reduces
// x to its mantissa z in [3/4, 3/2), and VGETEXPPD of x·(4/3)·2^-53
// gives the matching exponent k, so that u = 2^k·z exactly: x·(4/3)
// reaches the next binade exactly when x's mantissa is 3/2 or more (the
// rounded 4/3 lands the mantissa 3/2 on a tie that rounds up to 2, and
// every smaller mantissa below 2). The top four bits of z's fraction
// index sixteen intervals, 1/16 wide on [1, 3/2) (indices 0-7) and 1/32
// wide on [3/4, 1) (indices 8-15), each with its own constant c:
//
//	log u = k·ln2 + log c + log1p(r),   r = z·(1/c) − 1,
//
// with 1/c and log c read from two 16-entry tables by two-table
// permutes (their high halves as memory operands), r one fused
// multiply-add, and log1p(r) = r + r²·P(r) for a degree-7 minimax P
// (error below 2^-50.4 on [-1/32, 0.0304]), evaluated as two Horner
// halves joined by r^4. Interval 15, [31/32, 1), has c = 1: there r =
// z − 1 is exact and the log keeps its relative accuracy as u → 1.
// Every other c sits at its interval's centre, with 1/c picked so that
// log c rounds to a double within 2^-12 ulp; interval 0, [1, 17/16),
// holds only u in [2^k, 2^k·17/16) for k <= -1, whose log is far from
// 0, so its centre keeps |r| <= 1/32 there too. The sum is
//
//	y = (k·ln2Hi + log c) + ((k·ln2Lo + r) + r²·P),
//
// and no term cancels: where k = 0 and c ≠ 1, |log c| is at least
// twice |r|, and where k ≠ 0, |y| >= 0.28. Its roundings stay within
// 2.4·2^-53 of y; measured, the result is within one ulp (2^-52
// relative) of math.Log over 10^8 random uniforms, the 2^20 smallest and
// largest, and both neighbours of every interval edge in every binade,
// a quarter of logBudget (2^-50).
//
// The skip it yields is floor(q) for q = l/lnQ. The kernel computes
// q + 1 as fma(l, 1/lnQ, 1), whose error against the scalar quotient
// plus one is then below ~1.4e-15·(q+1). A lane is decided by the
// kernel only when q + 1 sits further than 1e-13·(q+1) + 1e-13 from
// every integer — about 70× that budget — so both share a floor. q + 1
// is clamped to length + 3/2 first: a clamped lane's fraction is 1/2,
// so it is decided, and it lies outside the phase whatever its exact
// quotient, which covers the MaxInt sentinel band too. Any other lane
// makes the kernel hand the call back with the stream state untouched,
// and the Go caller redoes the whole call with the exact log and the
// scalar's division. geoBlock8SelfCheck and laneSlots8SelfCheck verify
// the log's error budget and the slots bit-for-bit at start-up, before
// either kernel is ever used.

#include "textflag.h"

DATA kInt1<>+0(SB)/8, $1
GLOBL kInt1<>(SB), RODATA|NOPTR, $8
DATA kOne<>+0(SB)/8, $0x3FF0000000000000
GLOBL kOne<>(SB), RODATA|NOPTR, $8
DATA kThreeHalves<>+0(SB)/8, $0x3FF8000000000000
GLOBL kThreeHalves<>(SB), RODATA|NOPTR, $8
DATA k2p53<>+0(SB)/8, $0x4340000000000000
GLOBL k2p53<>(SB), RODATA|NOPTR, $8
// The rounded 4/3, times 2^-53.
DATA kFourThirds<>+0(SB)/8, $0x3CA5555555555555
GLOBL kFourThirds<>(SB), RODATA|NOPTR, $8
DATA kLn2Hi<>+0(SB)/8, $0x3FE62E42FEE00000
GLOBL kLn2Hi<>(SB), RODATA|NOPTR, $8
DATA kLn2Lo<>+0(SB)/8, $0x3DEA39EF35793C76
GLOBL kLn2Lo<>(SB), RODATA|NOPTR, $8
DATA kAbsMask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL kAbsMask<>(SB), RODATA|NOPTR, $8
// 1e-13: the near-integer uncertainty margin, ~70× the worst-case
// relative error between the kernel's quotient and the scalar's.
DATA kMargin<>+0(SB)/8, $0x3D3C25C268497682
GLOBL kMargin<>(SB), RODATA|NOPTR, $8

// 1/c and log c for the sixteen intervals of z, in index order: 0-7
// are [1 + i/16, +1/16), 8-14 are [1/2 + i/32, +1/32), 15 is [31/32, 1)
// with c = 1.
DATA kInvC<>+0(SB)/8, $0x3FEF07C1B3AB25D2
DATA kInvC<>+8(SB)/8, $0x3FED41D43E704AB3
DATA kInvC<>+16(SB)/8, $0x3FEBACF8E0485547
DATA kInvC<>+24(SB)/8, $0x3FEA41A43F6E2B72
DATA kInvC<>+32(SB)/8, $0x3FE8F9C176B7B5E9
DATA kInvC<>+40(SB)/8, $0x3FE7D05F631EF785
DATA kInvC<>+48(SB)/8, $0x3FE6C16BEF05D336
DATA kInvC<>+56(SB)/8, $0x3FE5C98810CF60E0
DATA kInvC<>+64(SB)/8, $0x3FF4E5E0DE92E3EF
DATA kInvC<>+72(SB)/8, $0x3FF414140623BE5C
DATA kInvC<>+80(SB)/8, $0x3FF3521D2F6DE374
DATA kInvC<>+88(SB)/8, $0x3FF29E40EE5DB990
DATA kInvC<>+96(SB)/8, $0x3FF1F70491A3815E
DATA kInvC<>+104(SB)/8, $0x3FF15B1E2735D82C
DATA kInvC<>+112(SB)/8, $0x3FF0C97133795071
DATA kInvC<>+120(SB)/8, $0x3FF0000000000000
GLOBL kInvC<>(SB), RODATA|NOPTR, $128
DATA kLogC<>+0(SB)/8, $0x3F9F82A2E5685A9D
DATA kLogC<>+8(SB)/8, $0x3FB6F0D1688EDE52
DATA kLogC<>+16(SB)/8, $0x3FC29553EAD16BA1
DATA kLogC<>+24(SB)/8, $0x3FC95259E7BB4369
DATA kLogC<>+32(SB)/8, $0x3FCFB918ECF0BA20
DATA kLogC<>+40(SB)/8, $0x3FD2E8E2607DE43B
DATA kLogC<>+48(SB)/8, $0x3FD5D1BE2F17A824
DATA kLogC<>+56(SB)/8, $0x3FD89A33D56015F9
DATA kLogC<>+64(SB)/8, $0xBFD1178F2BC9BDA7
DATA kLogC<>+72(SB)/8, $0xBFCD103799893BE7
DATA kLogC<>+80(SB)/8, $0xBFC823C2BF89A4CE
DATA kLogC<>+88(SB)/8, $0xBFC365FB16D9E946
DATA kLogC<>+96(SB)/8, $0xBFBDA7287EDE3981
DATA kLogC<>+104(SB)/8, $0xBFB4D30E1F7AADF5
DATA kLogC<>+112(SB)/8, $0xBFA894A6B693C5E4
DATA kLogC<>+120(SB)/8, $0x0000000000000000
GLOBL kLogC<>(SB), RODATA|NOPTR, $128

// P's coefficients, constant term first: log1p(r) ≈ r + r²·(A0 + A1·r
// + … + A7·r^7).
DATA kA0<>+0(SB)/8, $0xBFDFFFFFFFFFFFF5
GLOBL kA0<>(SB), RODATA|NOPTR, $8
DATA kA1<>+0(SB)/8, $0x3FD55555555553FD
GLOBL kA1<>(SB), RODATA|NOPTR, $8
DATA kA2<>+0(SB)/8, $0xBFD000000005E3B5
GLOBL kA2<>(SB), RODATA|NOPTR, $8
DATA kA3<>+0(SB)/8, $0x3FC999999A0F6DE7
GLOBL kA3<>(SB), RODATA|NOPTR, $8
DATA kA4<>+0(SB)/8, $0xBFC55554633B19C0
GLOBL kA4<>(SB), RODATA|NOPTR, $8
DATA kA5<>+0(SB)/8, $0x3FC2491F94EE40E8
GLOBL kA5<>(SB), RODATA|NOPTR, $8
DATA kA6<>+0(SB)/8, $0xBFC0063948CAE708
GLOBL kA6<>(SB), RODATA|NOPTR, $8
DATA kA7<>+0(SB)/8, $0x3FBC93BEB100DB28
GLOBL kA7<>(SB), RODATA|NOPTR, $8

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

// The log runs in four stages over seven registers, so that two logs
// can interleave stage by stage: x, the draw as a double in [1, 2^53),
// then free; t into z, then r; i into the index, 1/c, then r²; j into
// log c, then the result; k into k as a double; p and q into P(r)'s
// halves and r^4. The 1/c table's entries 0-7 must be in Z26.
#define LOG_REDUCE(x, t, i, k) \
	VMULPD.BCST kFourThirds<>(SB), x, k; \
	VGETMANTPD  $3, x, t;                \
	VGETEXPPD   k, k;                    \
	VPSRLQ      $48, t, i

#define LOG_LOOKUP(t, i, j) \
	VMOVUPD          kLogC<>(SB), j;         \
	VPERMT2PD        kLogC<>+64(SB), i, j;   \
	VPERMI2PD        kInvC<>+64(SB), Z26, i; \
	VFMSUB213PD.BCST kOne<>(SB), i, t;       \
	VMULPD           t, t, i

#define LOG_POLY(x, t, i, p, q) \
	VBROADCASTSD     kA7<>(SB), x;    \
	VBROADCASTSD     kA3<>(SB), p;    \
	VFMADD213PD.BCST kA6<>(SB), t, x; \
	VFMADD213PD.BCST kA2<>(SB), t, p; \
	VFMADD213PD.BCST kA5<>(SB), t, x; \
	VFMADD213PD.BCST kA1<>(SB), t, p; \
	VFMADD213PD.BCST kA4<>(SB), t, x; \
	VFMADD213PD.BCST kA0<>(SB), t, p; \
	VMULPD           i, i, q;         \
	VFMADD231PD      x, q, p

#define LOG_SUM(t, i, j, k, p) \
	VFMADD231PD.BCST kLn2Lo<>(SB), k, t; \
	VFMADD231PD      p, i, t;            \
	VFMADD231PD.BCST kLn2Hi<>(SB), k, j; \
	VADDPD           t, j, j

// LOG8 is one log, from the draw x to its result in j.
#define LOG8(x, t, i, j, k, p, q) \
	LOG_REDUCE(x, t, i, k);  \
	LOG_LOOKUP(t, i, j);     \
	LOG_POLY(x, t, i, p, q); \
	LOG_SUM(t, i, j, k, p)

// LOAD_LOG_TABLES puts the 1/c table's low half where the log reads it.
#define LOAD_LOG_TABLES \
	VMOVUPD kInvC<>(SB), Z26

// func geoSlots8Asm(s *[4]uint64, dst *int32, k, pos, length int, invLnQ float64) (n, next int)
TEXT ·geoSlots8Asm(SB), NOSPLIT, $0-64
	MOVQ s+0(FP), SI
	MOVQ k+16(FP), CX
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11

	// Lanes past k stay zero: their draw becomes 1, whose log the chain
	// takes at full speed, and the k mask drops them from every result.
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

	// 53-bit draws -> doubles (exact; raw < 2^53), with 0 nudged to 1,
	// so that each uniform is x·2^-53 >= 2^-53.
	VINSERTI64X2 $1, X1, Z0, Z0
	VINSERTI64X2 $2, X2, Z0, Z0
	VINSERTI64X2 $3, X3, Z0, Z0
	VPMAXUQ.BCST kInt1<>(SB), Z0, Z0
	VCVTQQ2PD    Z0, Z0

	LOAD_LOG_TABLES
	LOG8(Z0, Z1, Z2, Z11, Z7, Z8, Z9)

	// q+1 = l·(1/lnQ) + 1, clamped to length + 3/2: its floor is the
	// gap plus one.
	VBROADCASTSD     invLnQ+40(FP), Z13
	VFMADD213PD.BCST kOne<>(SB), Z13, Z11
	MOVQ             length+32(FP), BX
	VCVTSI2SDQ       BX, X5, X5
	VADDSD           kThreeHalves<>(SB), X5, X5
	VBROADCASTSD     X5, Z5
	VMINPD           Z5, Z11, Z11

	// K2 = live lanes whose floor the estimate cannot decide: within the
	// margin of an integer.
	VREDUCEPD        $0, Z11, Z3
	VPANDQ.BCST      kAbsMask<>(SB), Z3, Z3
	VBROADCASTSD     kMargin<>(SB), Z4
	VFMADD213PD.BCST kMargin<>(SB), Z11, Z4
	VCMPPD           $0x12, Z4, Z3, K1, K2
	KORTESTB         K2, K2
	JNZ              exact

	// Gaps plus one, summed from pos: lane j's slot is
	// pos-1 + Σ_{i<=j} (g_i + 1), g_i clamped to length.
	VCVTTPD2QQ   Z11, Z11
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
// eight streams, and the k (up to 16) iterations run in pairs whose two
// log chains interleave (LANE_LOG2). The quotient, the margin test and the clamp are
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

// LANE_STEP steps the eight streams once, leaving their draws as
// doubles in raw (0 nudged to 1, as in geoSlots8Asm).
#define LANE_STEP(raw, tmp) \
	VPSLLQ       $2, Z17, raw;          \
	VPADDQ       Z17, raw, raw;         \
	VPROLQ       $7, raw, raw;          \
	VPSLLQ       $3, raw, tmp;          \
	VPADDQ       tmp, raw, raw;         \
	VPSRLQ       $11, raw, raw;         \
	VPSLLQ       $17, Z17, tmp;         \
	VPXORQ       Z16, Z18, Z18;         \
	VPXORQ       Z17, Z19, Z19;         \
	VPXORQ       Z18, Z17, Z17;         \
	VPXORQ       Z19, Z16, Z16;         \
	VPXORQ       tmp, Z18, Z18;         \
	VPROLQ       $45, Z19, Z19;         \
	VPMAXUQ.BCST kInt1<>(SB), raw, raw; \
	VCVTQQ2PD    raw, raw

// LANE_LOG2 takes the logs of two steps' draws, Z0 into Z3 and Z6 into
// Z9, the two chains interleaved stage by stage.
#define LANE_LOG2 \
	LOG_REDUCE(Z0, Z1, Z2, Z4);     \
	LOG_REDUCE(Z6, Z7, Z8, Z10);    \
	LOG_LOOKUP(Z1, Z2, Z3);         \
	LOG_LOOKUP(Z7, Z8, Z9);         \
	LOG_POLY(Z0, Z1, Z2, Z5, Z12);  \
	LOG_POLY(Z6, Z7, Z8, Z11, Z14); \
	LOG_SUM(Z1, Z2, Z3, Z4, Z5);    \
	LOG_SUM(Z7, Z8, Z9, Z10, Z11)

// LANE_PLACE places the skips whose logs are in l, as geoSlots8Asm
// does lane by lane: the gap plus one, floor(min(q+1, length + 3/2)),
// moves each lane's last slot (Z21) to the new one. K2 collects the
// live lanes (K1) whose floor the estimate cannot decide; Z25 counts
// each live lane's slots inside the phase, a prefix because slots
// ascend.
#define LANE_PLACE(l) \
	VFMADD213PD.BCST kOne<>(SB), Z20, l;       \
	VMINPD           Z24, l, l;                \
	VREDUCEPD        $0, l, Z12;               \
	VPANDQ.BCST      kAbsMask<>(SB), Z12, Z12; \
	VBROADCASTSD     kMargin<>(SB), Z14;       \
	VFMADD213PD.BCST kMargin<>(SB), l, Z14;    \
	VCMPPD           $0x12, Z14, Z12, K1, K3;  \
	KORB             K3, K2, K2;               \
	VCVTTPD2QQ       l, l;                     \
	VPADDQ           l, Z21, Z21;              \
	VPCMPQ           $1, Z22, Z21, K1, K3;     \
	VPADDQ           Z27, Z25, K3, Z25

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
	VCVTQQ2PD    Z22, Z24
	VADDPD.BCST  kThreeHalves<>(SB), Z24, Z24
	VPBROADCASTQ kInt1<>(SB), Z27
	LOAD_LOG_TABLES
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

	// Z21 holds each lane's last slot, pos-1, until the draws are done.
	VPSUBQ         Z27, Z21, Z21

	// Rounds of up to eight draws in pairs: each ends with its columns
	// turned into rows, stored at the next eight slots of every lane's
	// row. When one draw is left, the pair's second log runs on a copy
	// of the first and is not placed.
lanesRound:
	LANE_STEP(Z0, Z1)
	CMPQ CX, $1
	JEQ  lanesOdd0
	LANE_STEP(Z6, Z7)
lanesPair0:
	LANE_LOG2
	LANE_PLACE(Z3)
	VPMOVQD Z21, Y29
	DECQ    CX
	JZ      lanesRoundDone
	LANE_PLACE(Z9)
	VPMOVQD Z21, Y13
	VINSERTI64X4 $1, Y13, Z29, Z29
	DECQ    CX
	JZ      lanesRoundDone

	LANE_STEP(Z0, Z1)
	CMPQ CX, $1
	JEQ  lanesOdd1
	LANE_STEP(Z6, Z7)
lanesPair1:
	LANE_LOG2
	LANE_PLACE(Z3)
	VPMOVQD Z21, Y30
	DECQ    CX
	JZ      lanesRoundDone
	LANE_PLACE(Z9)
	VPMOVQD Z21, Y13
	VINSERTI64X4 $1, Y13, Z30, Z30
	DECQ    CX
	JZ      lanesRoundDone

	LANE_STEP(Z0, Z1)
	CMPQ CX, $1
	JEQ  lanesOdd2
	LANE_STEP(Z6, Z7)
lanesPair2:
	LANE_LOG2
	LANE_PLACE(Z3)
	VPMOVQD Z21, Y31
	DECQ    CX
	JZ      lanesRoundDone
	LANE_PLACE(Z9)
	VPMOVQD Z21, Y13
	VINSERTI64X4 $1, Y13, Z31, Z31
	DECQ    CX
	JZ      lanesRoundDone

	LANE_STEP(Z0, Z1)
	CMPQ CX, $1
	JEQ  lanesOdd3
	LANE_STEP(Z6, Z7)
lanesPair3:
	LANE_LOG2
	LANE_PLACE(Z3)
	VPMOVQD Z21, Y15
	DECQ    CX
	JZ      lanesRoundDone
	LANE_PLACE(Z9)
	VPMOVQD Z21, Y13
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

lanesOdd0:
	VMOVDQA64 Z0, Z6
	JMP       lanesPair0
lanesOdd1:
	VMOVDQA64 Z0, Z6
	JMP       lanesPair1
lanesOdd2:
	VMOVDQA64 Z0, Z6
	JMP       lanesPair2
lanesOdd3:
	VMOVDQA64 Z0, Z6
	JMP       lanesPair3

lanesDrawn:
	KORTESTB K2, K2
	JNZ      lanesExact

	// ended: live lanes with a slot outside the phase (fewer than k
	// inside) or whose last slot was the phase's last.
	VPADDQ       Z27, Z21, Z21
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

// The lane bit-gather: for each lane asked for, the bits of a word
// array at the slots the lane kernel (or the Go path) placed in the
// last Draw. The lanes mask is walked lowest bit first, so a lane not
// asked for costs nothing and its out entry is left as it is. Each
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

// func laneBits8Asm(ls *laneState, slots *[8][laneBlock]int32, words *uint64, limit int, lanes uint8, out *[8]uint16) (ok bool)
TEXT ·laneBits8Asm(SB), NOSPLIT, $0-49
	MOVQ    ls+0(FP), SI
	MOVQ    slots+8(FP), DI
	MOVQ    words+16(FP), R8
	MOVBQZX lanes+32(FP), BX
	MOVQ    out+40(FP), R9

	// Every lane asked for with a count must have its phase inside the
	// words: its counted slots lie below its length.
	KMOVB        BX, K4
	VMOVDQU64    512(SI), Z0
	VPTESTMQ     Z0, Z0, K4, K1
	VMOVDQU64    448(SI), Z1
	VPBROADCASTQ limit+24(FP), Z2
	VPCMPQ       $6, Z2, Z1, K1, K2
	KORTESTB     K2, K2
	JNZ          bitsShort

	VMOVDQU32      kIota16<>(SB), Z3
	VPBROADCASTD   kDword31<>(SB), Z4
	VPBROADCASTD   kDword1<>(SB), Z5

bitsLane:
	TESTQ        BX, BX
	JZ           bitsDone
	BSFQ         BX, CX
	LEAQ         -1(BX), AX
	ANDQ         AX, BX
	MOVQ         CX, DX
	SHLQ         $6, DX
	VPBROADCASTD 512(SI)(CX*8), Z6
	VPCMPUD      $1, Z6, Z3, K1
	KMOVW        K1, K2
	VMOVDQU32    (DI)(DX*1), Z7
	VPSRLD       $5, Z7, Z8
	VPANDD       Z4, Z7, Z7
	VPXORD       Z9, Z9, Z9
	VPGATHERDD   (R8)(Z8*4), K1, Z9
	VPSRLVD      Z7, Z9, Z9
	VPTESTMD     Z5, Z9, K2, K3
	KMOVW        K3, AX
	MOVW         AX, (R9)(CX*2)
	JMP          bitsLane

bitsDone:
	MOVB $1, ok+48(FP)
	VZEROUPPER
	RET

bitsShort:
	MOVB $0, ok+48(FP)
	VZEROUPPER
	RET

// func log8Asm(u, l *[8]float64)
TEXT ·log8Asm(SB), NOSPLIT, $0-16
	MOVQ        u+0(FP), SI
	VMOVUPD     (SI), Z0
	VMULPD.BCST k2p53<>(SB), Z0, Z0
	LOAD_LOG_TABLES
	LOG8(Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	MOVQ        l+8(FP), DI
	VMOVUPD     Z3, (DI)
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
