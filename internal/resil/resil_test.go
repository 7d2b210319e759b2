package resil

import (
	"math"
	"testing"
	"time"
)

// The vectors below were captured from the per-package copies these
// primitives replaced, before the merge: fault.hash01 and
// cluster.hash01 (which agreed on every input), plansvc.splitmix64,
// cluster.deriveSeed, and the two backoff ladders (plansvc's
// Duration shift-and-cap, the fleet's doubling loop in float seconds).
// Each test holds the shared function, mapped the way its caller maps
// it, to those bits.

func TestHash01Vectors(t *testing.T) {
	for _, c := range []struct {
		seed int64
		vals []uint64
		want uint64 // float64 bits
	}{
		{0, nil, 0x3fe3c6ef372fe94f},
		{0, []uint64{0x0}, 0x3fdb9e279aa86e58},
		{1, []uint64{0x0}, 0x3fed33ff0cfb7ed0},
		{-1, []uint64{0xffffffffffffffff}, 0x3feb44dca5f46e61},
		{42, []uint64{0x7, 0x1, 0x0}, 0x3fdee94f82e7f5c2},
		{42, []uint64{0x7, 0x1, 0x1}, 0x3fe63189688eff4d},
		{43, []uint64{0x7, 0x1, 0x0}, 0x3fd864e9cbc0b60e},
		{-9223372036854775808, []uint64{0x1, 0x2, 0x3, 0x4, 0x5}, 0x3fcdfda1a43c5c18},
		{9223372036854775807, []uint64{0x9e3779b97f4a7c15}, 0x3fc533ebaa9701cc},
		{11, []uint64{0xbac0ff, 0x3, 0x1}, 0x3fc62eac01b2ef24},
		{11, []uint64{0xd15b47c8, 0x3, 0x0, 0x2}, 0x3fe69f0c92bff3c8},
		{2000, []uint64{0xc0ffee, 0x1, 0xdeadbeefcafef00d, 0x3}, 0x3fed7cada8fd8bb8},
		{3221905722074348170, []uint64{0x360fc54eeab, 0x38fc13, 0x6d2af9ed50b2, 0x2e130fc2}, 0x3fd037f222781eec},
		{858555867609364172, []uint64{}, 0x3fe2bba9b7477c91},
		{3345385574347526470, []uint64{0x1765d43fecb4, 0x1a9d2d352, 0x2e, 0xb0c4f77511aed2f4}, 0x3febc386441c8dbf},
		{-8426176461529444690, []uint64{0x10b7, 0x16, 0x35cf03bc4}, 0x3fe1770ca234e78b},
		{3023947700143949880, []uint64{0x19, 0xa94c880811846e8, 0xb0d15e, 0x7270ecd1e1b504}, 0x3fe5b1ab8c7b267e},
		{2078509520147133804, []uint64{0xe942743871f100}, 0x3fec1985ac3a281d},
		{3436451291398079892, []uint64{0xfa80f72821, 0x3db5bda0bdaa6f, 0x3c22082a7}, 0x3fc25fc87c3c984c},
		{398083777735132390, []uint64{}, 0x3fe37627d5e9bebf},
		{245974561471288910, []uint64{0x1015d8e75114f422, 0x13a, 0x1cf5b1f4d5}, 0x3fed3969affa028c},
		{-1073922170909052880, []uint64{}, 0x3fdbcbf4303271b2},
	} {
		if got := Hash01(c.seed, c.vals...); math.Float64bits(got) != c.want {
			t.Errorf("Hash01(%d, %#x) = %#016x, want %#016x", c.seed, c.vals, math.Float64bits(got), c.want)
		}
	}
}

// TestMixVectors: plansvc's splitmix64(x) is Mix(x, 0).
func TestMixVectors(t *testing.T) {
	for _, c := range []struct{ x, want uint64 }{
		{0x0, 0xe220a8397b1dcdaf},
		{0x1, 0x910a2dec89025cc1},
		{0xffffffffffffffff, 0xe4d971771b652c20},
		{0x9e3779b97f4a7c15, 0x6e789e6aa1b965f4},
		{0x8000000000000000, 0x481ec0a212a9f3db},
		{0x139e50243b, 0xf7385f18ef597ccb},
		{0x372947acf, 0x9ef302ba7ac8c7f2},
		{0x2b082adf61a7048, 0xd8eabee1d900d451},
		{0x279dabb94f, 0x306e99c62ae7ab98},
		{0x179b58d431adcc6, 0xd441e2c1dfc7de08},
		{0xec3583c38, 0xbcf6d4ba3bd4873},
		{0xda168faccd69a93, 0x17e5a147ac84109b},
		{0x58dfb23cfc42495, 0x535a7a6044a29829},
		{0x5e8af076cd633, 0xd86bd05b3ccb075},
		{0x77a4e35d6317, 0x7d69b53ae75f9239},
		{0x2cef3a99c6, 0xfdca60a114fa1b0d},
		{0xf24707fe1461ae2, 0x87df1fbbdfc1e222},
		{0x150b22d300326ad2, 0x389bf09d4cf976b8},
		{0x1e779571dd808, 0xebc7ba7ad3d46db8},
		{0x1870dd197a84cc62, 0xc68e041c1f7be897},
	} {
		if got := Mix(c.x, 0); got != c.want {
			t.Errorf("Mix(%#x, 0) = %#x, want %#x", c.x, got, c.want)
		}
	}
}

// TestDeriveSeedVectors: the fleet's per-class stream seed is
// int64(Mix(seed^0x5eed, class) >> 1).
func TestDeriveSeedVectors(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		class int
		want  int64
	}{
		{0, 0, 358316333273208026},
		{1, 0, 6854417442537711478},
		{-1, 615, 5648328611165802081},
		{42, 7, 5266705882270664871},
		{43, 7, 5886769274312489287},
		{-9223372036854775808, 1, 3340467101129135084},
		{9223372036854775807, 485, 2934543667943817739},
		{11, 103, 5716992623621968794},
		{11, 296, 3164639463482835499},
		{2000, 430, 3564336425307255028},
		{3221905722074348170, 299, 1417270738118106122},
		{858555867609364172, 39, 5383828217295924230},
		{3345385574347526470, 900, 3087707086379068190},
		{-8426176461529444690, 279, 2092731264463375414},
		{3023947700143949880, 25, 5125396792921562472},
		{2078509520147133804, 760, 2185833043746228709},
		{3436451291398079892, 313, 3813079556267980210},
		{398083777735132390, 57, 5646849812468596971},
		{245974561471288910, 458, 2768778144112755283},
		{-1073922170909052880, 63, 1658381379952294289},
	} {
		if got := int64(Mix(uint64(c.seed)^0x5eed, uint64(c.class)) >> 1); got != c.want {
			t.Errorf("derived seed (%d, %d) = %d, want %d", c.seed, c.class, got, c.want)
		}
	}
}

// TestBackoffVectors holds both units of the ladder to the old
// arithmetic for k = 0..8 at the ends and middle of the jitter range:
// nanosecond Durations from 25ms capped at 2s, and float seconds from
// 0.025 capped at 2.
func TestBackoffVectors(t *testing.T) {
	for _, c := range []struct {
		k    int
		frac uint64 // float64 bits
		want time.Duration
	}{
		{0, 0x0000000000000000, 25000000},
		{0, 0x3fe0000000000000, 31250000},
		{0, 0x3fefffffffffffff, 37500000},
		{1, 0x0000000000000000, 50000000},
		{1, 0x3fe0000000000000, 62500000},
		{1, 0x3fefffffffffffff, 75000000},
		{2, 0x0000000000000000, 100000000},
		{2, 0x3fe0000000000000, 125000000},
		{2, 0x3fefffffffffffff, 150000000},
		{3, 0x0000000000000000, 200000000},
		{3, 0x3fe0000000000000, 250000000},
		{3, 0x3fefffffffffffff, 300000000},
		{4, 0x0000000000000000, 400000000},
		{4, 0x3fe0000000000000, 500000000},
		{4, 0x3fefffffffffffff, 600000000},
		{5, 0x0000000000000000, 800000000},
		{5, 0x3fe0000000000000, 1000000000},
		{5, 0x3fefffffffffffff, 1200000000},
		{6, 0x0000000000000000, 1600000000},
		{6, 0x3fe0000000000000, 2000000000},
		{6, 0x3fefffffffffffff, 2400000000},
		{7, 0x0000000000000000, 2000000000},
		{7, 0x3fe0000000000000, 2500000000},
		{7, 0x3fefffffffffffff, 3000000000},
		{8, 0x0000000000000000, 2000000000},
		{8, 0x3fe0000000000000, 2500000000},
		{8, 0x3fefffffffffffff, 3000000000},
	} {
		frac := math.Float64frombits(c.frac)
		if got := time.Duration(Backoff(float64(25*time.Millisecond), float64(2*time.Second), c.k, frac)); got != c.want {
			t.Errorf("Duration Backoff(k=%d, frac=%g) = %d, want %d", c.k, frac, got, c.want)
		}
	}
	for _, c := range []struct {
		k          int
		frac, want uint64 // float64 bits
	}{
		{0, 0x0000000000000000, 0x3f9999999999999a},
		{0, 0x3fe0000000000000, 0x3fa0000000000000},
		{0, 0x3fefffffffffffff, 0x3fa3333333333334},
		{1, 0x0000000000000000, 0x3fa999999999999a},
		{1, 0x3fe0000000000000, 0x3fb0000000000000},
		{1, 0x3fefffffffffffff, 0x3fb3333333333334},
		{2, 0x0000000000000000, 0x3fb999999999999a},
		{2, 0x3fe0000000000000, 0x3fc0000000000000},
		{2, 0x3fefffffffffffff, 0x3fc3333333333334},
		{3, 0x0000000000000000, 0x3fc999999999999a},
		{3, 0x3fe0000000000000, 0x3fd0000000000000},
		{3, 0x3fefffffffffffff, 0x3fd3333333333334},
		{4, 0x0000000000000000, 0x3fd999999999999a},
		{4, 0x3fe0000000000000, 0x3fe0000000000000},
		{4, 0x3fefffffffffffff, 0x3fe3333333333334},
		{5, 0x0000000000000000, 0x3fe999999999999a},
		{5, 0x3fe0000000000000, 0x3ff0000000000000},
		{5, 0x3fefffffffffffff, 0x3ff3333333333334},
		{6, 0x0000000000000000, 0x3ff999999999999a},
		{6, 0x3fe0000000000000, 0x4000000000000000},
		{6, 0x3fefffffffffffff, 0x4003333333333334},
		{7, 0x0000000000000000, 0x4000000000000000},
		{7, 0x3fe0000000000000, 0x4004000000000000},
		{7, 0x3fefffffffffffff, 0x4008000000000000},
		{8, 0x0000000000000000, 0x4000000000000000},
		{8, 0x3fe0000000000000, 0x4004000000000000},
		{8, 0x3fefffffffffffff, 0x4008000000000000},
	} {
		frac := math.Float64frombits(c.frac)
		if got := Backoff(0.025, 2, c.k, frac); math.Float64bits(got) != c.want {
			t.Errorf("seconds Backoff(k=%d, frac=%g) = %#016x, want %#016x", c.k, frac, math.Float64bits(got), c.want)
		}
	}
}

// TestBackoffCallerVectors holds each caller's whole sleep — its own
// jitter source composed with Backoff — to the old function's output:
// plansvc's per-key jitter up to attempt 63 (where the old shift
// overflowed into its cap), and the fleet's per-(seed, job, attempt)
// jitter.
func TestBackoffCallerVectors(t *testing.T) {
	for _, c := range []struct {
		key     uint64
		attempt int
		want    time.Duration
	}{
		{0xbc74a9fcbba369fa, 0, 26303280},
		{0xbc74a9fcbba369fa, 1, 64696753},
		{0xbc74a9fcbba369fa, 2, 128812547},
		{0xbc74a9fcbba369fa, 5, 1198105373},
		{0xbc74a9fcbba369fa, 6, 2164965233},
		{0xbc74a9fcbba369fa, 7, 2405859856},
		{0xbc74a9fcbba369fa, 8, 2444040345},
		{0xbc74a9fcbba369fa, 20, 2603527518},
		{0xbc74a9fcbba369fa, 40, 2856652699},
		{0xbc74a9fcbba369fa, 63, 2850096062},
		{0x417f6086eb362841, 0, 35856782},
		{0x417f6086eb362841, 1, 65085079},
		{0x417f6086eb362841, 2, 149278782},
		{0x417f6086eb362841, 5, 958479557},
		{0x417f6086eb362841, 6, 1945138472},
		{0x417f6086eb362841, 7, 2141905004},
		{0x417f6086eb362841, 8, 2204602463},
		{0x417f6086eb362841, 20, 2406156846},
		{0x417f6086eb362841, 40, 2221771923},
		{0x417f6086eb362841, 63, 2122281012},
		{0x101b63cbe7b9d3bc, 0, 25372193},
		{0x101b63cbe7b9d3bc, 1, 68257447},
		{0x101b63cbe7b9d3bc, 2, 134962255},
		{0x101b63cbe7b9d3bc, 5, 959668850},
		{0x101b63cbe7b9d3bc, 6, 2157921089},
		{0x101b63cbe7b9d3bc, 7, 2279264396},
		{0x101b63cbe7b9d3bc, 8, 2195431595},
		{0x101b63cbe7b9d3bc, 20, 2848699893},
		{0x101b63cbe7b9d3bc, 40, 2140276152},
		{0x101b63cbe7b9d3bc, 63, 2647224236},
		{0x95c6a05bef87fd5b, 0, 31095648},
		{0x95c6a05bef87fd5b, 1, 54464352},
		{0x95c6a05bef87fd5b, 2, 121919874},
		{0x95c6a05bef87fd5b, 5, 809234446},
		{0x95c6a05bef87fd5b, 6, 1728615077},
		{0x95c6a05bef87fd5b, 7, 2690456383},
		{0x95c6a05bef87fd5b, 8, 2930041449},
		{0x95c6a05bef87fd5b, 20, 2771611378},
		{0x95c6a05bef87fd5b, 40, 2616157164},
		{0x95c6a05bef87fd5b, 63, 2656666869},
	} {
		frac := Unit(Mix(c.key^(uint64(c.attempt)+1)*golden, 0))
		if got := time.Duration(Backoff(float64(25*time.Millisecond), float64(2*time.Second), c.attempt, frac)); got != c.want {
			t.Errorf("plansvc backoff(%#x, %d) = %d, want %d", c.key, c.attempt, got, c.want)
		}
	}
	for _, c := range []struct {
		seed          int64
		job, attempts int
		want          uint64 // float64 bits
	}{
		{0, 0, 1, 0x3f9d79a4792055fa},
		{0, 0, 3, 0x3fc1a3c7331ec19f},
		{0, 0, 5, 0x3fe0969bd3b9dcc4},
		{0, 0, 7, 0x4001124476d3b250},
		{0, 0, 9, 0x4003e00eb60adfca},
		{0, 1, 1, 0x3f9a65098a668d18},
		{0, 1, 3, 0x3fbcaffd9891bb77},
		{0, 1, 5, 0x3fe0c836aa1c8f65},
		{0, 1, 7, 0x3ffc56ec5aca3080},
		{0, 1, 9, 0x400033964b72c5be},
		{0, 17, 1, 0x3f9e7db2233b5dcc},
		{0, 17, 3, 0x3fc1f39d03a40777},
		{0, 17, 5, 0x3fdb033c8c170f80},
		{0, 17, 7, 0x4000c026faa5780a},
		{0, 17, 9, 0x400515049a7f6d44},
		{11, 0, 1, 0x3fa1d9869cd89e80},
		{11, 0, 3, 0x3fc00aa62ef9ed62},
		{11, 0, 5, 0x3fdcfbecb8381497},
		{11, 0, 7, 0x3ff9e1af2e0ead14},
		{11, 0, 9, 0x400028a67f360a65},
		{11, 1, 1, 0x3fa21eeac55b264f},
		{11, 1, 3, 0x3fbbe64976793b58},
		{11, 1, 5, 0x3fdef56351139fa7},
		{11, 1, 7, 0x3ffca897deca7974},
		{11, 1, 9, 0x40058ae837b7b690},
		{11, 17, 1, 0x3fa212cb0463f9f3},
		{11, 17, 3, 0x3fc25f378ee2af2c},
		{11, 17, 5, 0x3fe00fc1da9c98bb},
		{11, 17, 7, 0x40007e7fbba8a9d0},
		{11, 17, 9, 0x40038fc062cc53d6},
		{2000, 0, 1, 0x3f9c769591ff17ac},
		{2000, 0, 3, 0x3fc088408eb8071c},
		{2000, 0, 5, 0x3fe01630671317fb},
		{2000, 0, 7, 0x4002e76a1f2611aa},
		{2000, 0, 9, 0x40000db5bcd42e8b},
		{2000, 1, 1, 0x3f9a3217b2299174},
		{2000, 1, 3, 0x3fbc67e6e8f90ce0},
		{2000, 1, 5, 0x3fe001e155e8cb14},
		{2000, 1, 7, 0x400230930784537e},
		{2000, 1, 9, 0x4004ddebfb7b3bb6},
		{2000, 17, 1, 0x3fa02667aa4f7a3f},
		{2000, 17, 3, 0x3fc1400c9417aa6f},
		{2000, 17, 5, 0x3fe02058531c63cf},
		{2000, 17, 7, 0x3ffc0bec5afd319a},
		{2000, 17, 9, 0x4003cf028f9ba436},
		{-5, 0, 1, 0x3f9cbd85dff6ca32},
		{-5, 0, 3, 0x3fba2ed39e4465c2},
		{-5, 0, 5, 0x3fe09cef7c2ab06f},
		{-5, 0, 7, 0x3ffc9fe769ce7c88},
		{-5, 0, 9, 0x40031b72fb3d223e},
		{-5, 1, 1, 0x3f9d048c60dfa17f},
		{-5, 1, 3, 0x3fbaf962b451f1d4},
		{-5, 1, 5, 0x3fde331afbd6d797},
		{-5, 1, 7, 0x3ffcec611e15dc0a},
		{-5, 1, 9, 0x40039065d8c2f23b},
		{-5, 17, 1, 0x3f9b522d95d5c682},
		{-5, 17, 3, 0x3fc01445e215fc83},
		{-5, 17, 5, 0x3fdc1375cadf7540},
		{-5, 17, 7, 0x3ffd04e94aa96d6a},
		{-5, 17, 9, 0x400539e4a28c6814},
	} {
		frac := Hash01(c.seed, 0xbac0ff, uint64(c.job), uint64(c.attempts))
		if got := Backoff(0.025, 2, c.attempts-1, frac); math.Float64bits(got) != c.want {
			t.Errorf("fleet backoff(seed %d, job %d, attempt %d) = %#016x, want %#016x",
				c.seed, c.job, c.attempts, math.Float64bits(got), c.want)
		}
	}
}

// TestHash01Deterministic pins down the decision stream's shape: equal
// inputs hash equally, any differing coordinate decorrelates, and values
// stay in [0, 1).
func TestHash01Deterministic(t *testing.T) {
	base := Hash01(42, 7, 1, 0)
	if base != Hash01(42, 7, 1, 0) {
		t.Fatal("Hash01 not deterministic")
	}
	for _, v := range []float64{
		Hash01(43, 7, 1, 0), // seed
		Hash01(42, 8, 1, 0), // task
		Hash01(42, 7, 2, 0), // rule
		Hash01(42, 7, 1, 1), // attempt
	} {
		if v == base {
			t.Fatalf("coordinate change did not change hash (%g)", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := Hash01(1, uint64(i)); v < 0 || v >= 1 {
			t.Fatalf("Hash01 out of [0,1): %g", v)
		}
	}
}
