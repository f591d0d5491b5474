package coset

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/pcm"
	"repro/internal/prng"
)

// parseBits parses a big-endian binary string (spaces allowed) into a
// uint64, so test vectors can be written exactly as the paper prints
// them (leftmost bit most significant).
func parseBits(s string) uint64 {
	s = strings.ReplaceAll(s, " ", "")
	var v uint64
	for _, c := range s {
		v <<= 1
		if c == '1' {
			v |= 1
		} else if c != '0' {
			panic("bad bit string")
		}
	}
	return v
}

// fixedKernels is a KernelSource with explicit kernel values.
type fixedKernels struct {
	m  int
	ks []uint64
}

func (f *fixedKernels) Kernels(left uint64) []uint64 { return f.ks }
func (f *fixedKernels) NumKernels() int              { return len(f.ks) }
func (f *fixedKernels) KernelBits() int              { return f.m }
func (f *fixedKernels) Stored() bool                 { return true }

// TestPaperWorkedExample reproduces Fig. 3 of the paper end to end:
// VCC(64, 64, 4) minimizing ones on the exact data block and kernels
// shown, expecting the exact Xopt and auxiliary bits.
//
// Bit-order note: the paper writes d0 as the leftmost (most significant)
// 16 bits; this implementation numbers partition 0 from the least
// significant bits, so paper partition d_k is partition 3-k here. The
// paper's flag string "0110" (d0..d3) maps to flags 0b0110 here as well
// because the pattern is palindromic.
func TestPaperWorkedExample(t *testing.T) {
	d := parseBits("1010001011011011 0101000100100100 0100011001000101 1010010100001011")
	kernels := []uint64{
		parseBits("1010100111011011"), // R0
		parseBits("0100011111110100"), // R1
		parseBits("0011001001100011"), // R2
		parseBits("1010110001000111"), // R3
	}
	wantX := parseBits("0000101100000000 0000011100000000 0001000001100001 0000110011010000")

	vcc := NewVCC(64, &fixedKernels{m: 16, ks: kernels})
	if vcc.NumVirtualCosets() != 64 {
		t.Fatalf("N = %d, want 64", vcc.NumVirtualCosets())
	}
	if vcc.AuxBits() != 6 {
		t.Fatalf("aux bits = %d, want 6", vcc.AuxBits())
	}

	ev := NewEvaluator(Ctx{N: 64, Mode: pcm.SLC}, ObjOnes)
	enc, aux := vcc.Encode(d, ev)
	if enc != wantX {
		t.Errorf("Xopt = %016x, want %016x", enc, wantX)
	}
	// Kernel 0 selected; paper flags d0..d3 = 0,1,1,0 -> bits 0b0110.
	if aux>>4 != 0 {
		t.Errorf("kernel index = %d, want 0", aux>>4)
	}
	if aux&0xF != 0b0110 {
		t.Errorf("flags = %04b, want 0110", aux&0xF)
	}
	// Total cost per Fig. 3(d.3): 17 ones including aux bits.
	total := ev.Full(enc).Add(ev.Aux(aux, vcc.AuxBits()))
	if total.Primary != 17 {
		t.Errorf("total cost = %v, want 17", total.Primary)
	}
	// Round trip.
	if got := vcc.Decode(enc, aux, 0); got != d {
		t.Errorf("decode = %016x, want %016x", got, d)
	}
}

// TestPaperPerKernelCosts checks the intermediate cost matrix of
// Fig. 3(d.1) for kernel R0 (paper values 3, 13, 12, 5 for d0..d3).
func TestPaperPerKernelCosts(t *testing.T) {
	d := parseBits("1010001011011011 0101000100100100 0100011001000101 1010010100001011")
	r0 := parseBits("1010100111011011")
	// Paper d0 is partition 3 here, d3 is partition 0.
	want := map[int]int{3: 3, 2: 13, 1: 12, 0: 5}
	for j, w := range want {
		dj := bitutil.SubBlock(d, j, 16)
		if got := bitutil.OnesCount(dj ^ r0); got != w {
			t.Errorf("partition %d cost = %d, want %d", j, got, w)
		}
	}
}

// TestAlgorithm2GeneratesPaperKernels feeds the worked example's left
// digits through the Algorithm 2 generator and expects the four kernels
// listed in Section IV-B (as a set; base-vector ordering differs by
// endianness convention).
func TestAlgorithm2GeneratesPaperKernels(t *testing.T) {
	d := parseBits("1010001011011011 0101000100100100 0100011001000101 1010010100001011")
	left := bitutil.CompressOdd(d)
	gen := NewGeneratedKernels(32, 16, 4)
	got := gen.Kernels(left)
	want := map[uint64]bool{
		parseBits("1101101100000100"): true,
		parseBits("1000111001010001"): true,
		parseBits("0001000011000011"): true,
		parseBits("0100010110010110"): true,
	}
	if len(got) != 4 {
		t.Fatalf("got %d kernels", len(got))
	}
	for _, k := range got {
		if !want[k] {
			t.Errorf("unexpected kernel %016b", k)
		}
		delete(want, k)
	}
	if len(want) != 0 {
		t.Errorf("missing kernels: %v", want)
	}
}

// TestVCCEncodeIsOptimal exhaustively checks that Encode finds the global
// optimum over all N virtual cosets (including aux cost), for several
// objectives and random contexts.
func TestVCCEncodeIsOptimal(t *testing.T) {
	rng := prng.New(99)
	vcc := NewVCCStored(32, 16, 16, 7) // n=32, m=16, p=2, r=4, N=16
	for trial := 0; trial < 200; trial++ {
		data := rng.Uint64() & bitutil.Mask(32)
		old := rng.Uint64()
		stuckSym := rng.Uint64() & 0x7 // a few stuck cells
		ctx := Ctx{
			N: 32, Mode: pcm.MLC, MLCPlane: true,
			OldWord:   old,
			NewLeft:   rng.Uint64() & bitutil.Mask(32),
			StuckMask: bitutil.ExpandSymbolMask(stuckSym),
			StuckVal:  rng.Uint64() & bitutil.ExpandSymbolMask(stuckSym),
			OldAux:    rng.Uint64() & bitutil.Mask(vcc.AuxBits()),
		}
		for _, obj := range []Objective{ObjOnes, ObjFlips, ObjEnergySAW, ObjSAWEnergy} {
			ev := NewEvaluator(ctx, obj)
			enc, aux := vcc.Encode(data, ev)
			got := ev.Full(enc).Add(ev.Aux(aux, vcc.AuxBits()))

			// Exhaustive reference: try every aux index.
			best := Pair{Primary: 1e18}
			for a := uint64(0); a < uint64(vcc.NumVirtualCosets()); a++ {
				cand := data ^ vcc.VirtualCoset(a, ctx.NewLeft)
				cost := ev.Full(cand).Add(ev.Aux(a, vcc.AuxBits()))
				if cost.Less(best) {
					best = cost
				}
			}
			if got != best {
				t.Fatalf("trial %d obj %v: Encode cost %+v, exhaustive best %+v",
					trial, obj, got, best)
			}
		}
	}
}

// TestVCCRoundTrip checks Decode inverts Encode across configurations,
// kernel sources, and objectives.
func TestVCCRoundTrip(t *testing.T) {
	rng := prng.New(5)
	configs := []*VCC{
		NewVCCStored(64, 16, 256, 1),
		NewVCCStored(64, 16, 32, 2),
		NewVCCStored(32, 16, 64, 3),
		NewVCCStored(64, 32, 8, 4),
		NewVCCGenerated(16, 64),
		NewVCCGenerated(16, 256),
		NewVCC(32, WithHybridKernels(NewGeneratedKernels(32, 16, 16))),
	}
	for _, vcc := range configs {
		n := vcc.PlaneBits()
		for trial := 0; trial < 100; trial++ {
			data := rng.Uint64() & bitutil.Mask(n)
			left := rng.Uint64() & bitutil.Mask(32)
			ctx := Ctx{N: n, Mode: pcm.MLC, MLCPlane: n == 32,
				OldWord: rng.Uint64(), NewLeft: left}
			ev := NewEvaluator(ctx, ObjEnergySAW)
			enc, aux := vcc.Encode(data, ev)
			if got := vcc.Decode(enc, aux, left); got != data {
				t.Fatalf("%s: round trip failed: %x -> %x,%x -> %x",
					vcc.Name(), data, enc, aux, got)
			}
		}
	}
}

func TestVCCAuxBitsMatchRCC(t *testing.T) {
	// Paper Section IV-A: VCC(64,256,16) and RCC(64,256) both use 8 aux
	// bits.
	vcc := NewVCCStored(64, 16, 256, 1)
	rcc := NewRCC(64, 256, 1)
	if vcc.AuxBits() != 8 || rcc.AuxBits() != 8 {
		t.Errorf("aux bits vcc=%d rcc=%d, want 8", vcc.AuxBits(), rcc.AuxBits())
	}
	// MLC plane config: r=64, p=2 -> 6+2 = 8.
	if got := NewVCCGenerated(16, 256).AuxBits(); got != 8 {
		t.Errorf("generated aux bits = %d, want 8", got)
	}
}

func TestVCCReducesOnesOnRandomData(t *testing.T) {
	// On random data, minimizing ones with 256 virtual cosets should get
	// well under the unencoded expectation of n/2 = 32 ones.
	rng := prng.New(17)
	vcc := NewVCCStored(64, 16, 256, 9)
	ev := NewEvaluator(Ctx{N: 64, Mode: pcm.SLC}, ObjOnes)
	var total float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		enc, _ := vcc.Encode(rng.Uint64(), ev)
		total += float64(bitutil.OnesCount(enc))
	}
	avg := total / trials
	if avg >= 26 {
		t.Errorf("avg ones %v, want clearly below 32 (unencoded)", avg)
	}
}

func TestVCCGeneratedDecodableFromStoredWord(t *testing.T) {
	// The decoder sees only the stored word; for generated kernels the
	// left plane passes through unchanged, so decode must succeed using
	// the stored word's left plane.
	rng := prng.New(23)
	vcc := NewVCCGenerated(16, 256)
	for i := 0; i < 200; i++ {
		word := rng.Uint64() // encrypted incoming word
		left, right := bitutil.SplitPlanes(word)
		ev := NewEvaluator(Ctx{N: 32, Mode: pcm.MLC, MLCPlane: true,
			OldWord: rng.Uint64(), NewLeft: left}, ObjEnergySAW)
		enc, aux := vcc.Encode(right, ev)
		storedWord := bitutil.MergePlanes(left, enc)
		// Decode from what memory retains.
		sl, sr := bitutil.SplitPlanes(storedWord)
		if got := vcc.Decode(sr, aux, sl); got != right {
			t.Fatalf("decode from stored word failed at trial %d", i)
		}
	}
}

func TestVCCVirtualCosetStructure(t *testing.T) {
	// Virtual coset aux=i<<p (no flags) must be the kernel tiled across
	// all partitions; flags complement the corresponding partition.
	vcc := NewVCCStored(64, 16, 64, 3) // r=4, p=4
	ks := vcc.Source().Kernels(0)
	for i := range ks {
		v := vcc.VirtualCoset(uint64(i)<<4, 0)
		if v != bitutil.Repeat(ks[i], 16, 4) {
			t.Errorf("kernel %d: plain virtual coset wrong", i)
		}
		vInv := vcc.VirtualCoset(uint64(i)<<4|0b0001, 0)
		want := bitutil.SetSubBlock(v, 0, 16, ^bitutil.SubBlock(v, 0, 16)&0xFFFF)
		if vInv != want {
			t.Errorf("kernel %d: flagged virtual coset wrong", i)
		}
	}
}

func TestVCCPanicsOnBadConfig(t *testing.T) {
	for name, f := range map[string]func(){
		"m not dividing n": func() { NewVCC(64, NewStoredKernels(4, 24, 1)) },
		"N not multiple":   func() { NewVCCStored(64, 16, 100, 1) },
		"zero kernels":     func() { NewStoredKernels(0, 16, 1) },
		"bad gen width":    func() { NewGeneratedKernels(32, 24, 4) },
		"gen r too small":  func() { NewGeneratedKernels(32, 16, 1) },
		"gen r not pow2":   func() { NewGeneratedKernels(32, 16, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHybridKernelsActLikeFNWOnBiasedData(t *testing.T) {
	// With the zero kernel present, a biased (all-zeros) block should
	// encode to all zeros at zero cost, like FNW would.
	src := WithHybridKernels(NewStoredKernels(3, 16, 5))
	vcc := NewVCC(32, src)
	ev := NewEvaluator(Ctx{N: 32, Mode: pcm.SLC}, ObjOnes)
	enc, aux := vcc.Encode(0, ev)
	if enc != 0 {
		t.Errorf("biased block encoded to %x, want 0", enc)
	}
	if got := vcc.Decode(enc, aux, 0); got != 0 {
		t.Error("round trip failed")
	}
}

func TestStoredKernelsDeterministic(t *testing.T) {
	a := NewStoredKernels(8, 16, 42).Kernels(0)
	b := NewStoredKernels(8, 16, 42).Kernels(0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("kernel ROM not deterministic")
		}
	}
	c := NewStoredKernels(8, 16, 43).Kernels(0)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical ROMs")
	}
}

func TestGeneratedKernelsVaryWithData(t *testing.T) {
	gen := NewGeneratedKernels(32, 16, 8)
	a := append([]uint64(nil), gen.Kernels(0x12345678)...)
	b := gen.Kernels(0x87654321)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("generated kernels should depend on the left digits")
	}
}

func TestVCCName(t *testing.T) {
	if got := NewVCCStored(64, 16, 256, 1).Name(); got != "VCC-Stored(64,256,16)" {
		t.Errorf("name = %q", got)
	}
	if got := NewVCCGenerated(16, 256).Name(); got != "VCC-Gen(32,256,64)" {
		t.Errorf("name = %q", got)
	}
}

// TestSwarLanesMatchScalar holds the flips kernel's lane arithmetic
// (per-lane count, borrow compare and select, horizontal sum) to a
// per-lane scalar loop for every lane width the kernel serves. Besides
// random words it runs each width's worst case: every cell changed plus
// an aux cost of 1, the largest value a lane ever holds and the one a
// carry or borrow would leak from into the next lane.
func TestSwarLanesMatchScalar(t *testing.T) {
	rng := prng.New(0x5A4)
	for _, w := range []uint{4, 8, 16, 32, 64} {
		p := 64 / int(w)
		var ones uint64
		for j := 0; j < p; j++ {
			ones |= 1 << (uint(j) * w)
		}
		l := newSwarLanes(w, ones)
		lane := func(x uint64, j int) uint64 { return bitutil.SubBlock(x, j, int(w)) }
		check := func(x0, x1, a0 uint64) {
			t.Helper()
			a1 := a0 ^ ones
			c0, c1 := l.count(x0)+a0, l.count(x1)+a1
			lt := l.less(c1, c0)
			var total uint64
			for j := 0; j < p; j++ {
				w0 := uint64(bits.OnesCount64(lane(x0, j))) + lane(a0, j)
				w1 := uint64(bits.OnesCount64(lane(x1, j))) + lane(a1, j)
				wantLT, low := uint64(0), w0
				if w1 < w0 {
					wantLT, low = bitutil.Mask(int(w)), w1
				}
				if lane(c0, j) != w0 || lane(c1, j) != w1 || lane(lt, j) != wantLT {
					t.Fatalf("w=%d lane %d of x0=%#x x1=%#x a0=%#x: costs (%d,%d) less %#x, want (%d,%d) less %#x",
						w, j, x0, x1, a0, lane(c0, j), lane(c1, j), lane(lt, j), w0, w1, wantLT)
				}
				total += low
			}
			if got := l.sum(c0 ^ (c0^c1)&lt); got != total {
				t.Fatalf("w=%d x0=%#x x1=%#x a0=%#x: lane sum %d, want %d", w, x0, x1, a0, got, total)
			}
		}
		check(^uint64(0), ^uint64(0), 0)    // plain orientation wins every lane, w vs w+1
		check(^uint64(0), ^uint64(0), ones) // complement wins every lane, w+1 vs w
		check(^uint64(0), 0, ones)          // w+1 vs 0
		check(0, ^uint64(0), 0)             // 0 vs w+1
		for trial := 0; trial < 2000; trial++ {
			check(rng.Uint64(), rng.Uint64(), rng.Uint64()&ones)
		}
	}
}
