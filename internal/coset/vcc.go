package coset

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitutil"
	"repro/internal/pcm"
)

// VCC is Virtual Coset Coding (Algorithm 1 of the paper). The n-bit data
// plane is split into p = n/m partitions; each of the r kernels (and its
// complement) is priced on every partition independently and in parallel,
// and the per-partition choices are concatenated into the best virtual
// coset that kernel can form. The overall winner among the r kernels is
// emitted together with its index:
//
//	aux = kernelIndex << p | flags
//
// where flag bit j records that partition j used the complemented kernel.
// One kernel thus stands in for 2^p virtual cosets, so VCC(n, N, r)
// evaluates N = r * 2^p candidates at the cost of r kernel passes — the
// 2^(p-1) complexity reduction over RCC quantified in Section IV.
//
// The per-partition minimization is exact for every Objective in this
// package because all of them decompose over cells: the lexicographic
// (primary, secondary) sum over partitions is minimized by choosing the
// lexicographic minimum within each partition.
type VCC struct {
	n, m, p int
	src     KernelSource

	// sc is the codec-owned sliced context backing the plain Encode
	// entry point; callers that batch words (memctrl) pass their own via
	// EncodeSliced. fs is the fast-path search scratch (candidate cost
	// tables, kernel classes, bound suffixes), allocated on first use
	// and reused so steady-state encodes are allocation-free. Both make
	// a VCC, like the kernel sources it wraps, single-goroutine state.
	sc SlicedCtx
	fs vccSearch

	// Tiling and decode plan, fixed at construction. repMul tiles an
	// m-bit kernel across all p partitions with one multiply (ones at
	// bit positions j*m; kernels carry no bits above m, so the partial
	// products never overlap and the sum is exactly the OR of the
	// shifted copies); the flips encode and DecodeWords both use it.
	// The rest serves DecodeWords alone. flagTab maps the p flag bits
	// to the full-plane complement mask they select. storedTiled caches
	// the ROM kernels pre-tiled; kat answers single generated kernels
	// without expanding the set. flagTab == nil (p too wide for the
	// table) disables the plan and DecodeWords falls back to Decode.
	repMul      uint64
	flagTab     []uint64
	storedTiled []uint64
	kat         KernelAtSource
}

// vccFlagTabMaxP bounds the decode flag table at 256 entries (2 KiB).
// NewVCC admits p up to 16, but beyond 8 flag bits the table would
// outgrow its cache-residency budget for a rarely-used geometry, so
// those decode through the reference path instead.
const vccFlagTabMaxP = 8

// vccSearch is the reusable scratch of the sliced encode search.
type vccSearch struct {
	// Kernel canonicalization: kernels k and k^mMask generate the same
	// per-partition candidate values (with flag roles swapped), so each
	// kernel maps to a class — the canonical value min(k, k^mMask) — and
	// an orientation (comp: whether the kernel is the complemented
	// form). Distinct classes, not kernels, pay candidate pricing.
	canon []uint64 // distinct canonical kernel values (len q <= r)
	pres  []uint8  // per class: bit 0/1 = plain/complemented kernel present
	class []int32  // per kernel: class index
	comp  []bool   // per kernel: complemented orientation
	tab   []uint64 // open-addressed canon -> class map (power-of-two size)

	// Per-partition candidate cost tables: choice[j*q+t] is class t's
	// resolved decision (chosen sub-value, flag bit, cost including the
	// flag aux bit) for partition j, for both orientations.
	choice []partChoice

	// idxP caches the kernel-index aux-bit primary costs per bit value
	// for the ObjEnergySAW specialization, so surviving kernels fold
	// their index bits with one indexed load each.
	idxP [2][16]float64

	// Branch-and-bound state: lb[j] is the component-wise floor of every
	// available choice in partition j, lbSuffix[j] the floor of
	// completing partitions j..p-1. Index-bit cost enters the bound as a
	// single shared floor (idxFloor, the cheaper aux value per index
	// bit, summed) rather than per kernel — the final sum of a surviving
	// kernel re-adds its exact index bits in reference order.
	lb       []Pair
	lbSuffix []Pair

	// epoch invalidates tab lazily: a slot is live only when its stored
	// epoch matches, so dedupe skips the O(len(tab)) clear per word.
	epoch uint32

	// Stored kernel ROMs never change, so their canonicalization is
	// computed once (staticDone) and the class count cached (staticQ)
	// instead of re-hashing the identical kernel set every word.
	staticDone bool
	staticQ    int
}

// partChoice holds one kernel class's resolved decision for one
// partition, indexed by kernel orientation.
type partChoice struct {
	enc  [2]uint64
	flag [2]uint64
	cost [2]Pair
}

// ensure sizes the scratch for r kernels over p partitions.
func (s *vccSearch) ensure(r, p int) {
	if cap(s.canon) < r {
		s.canon = make([]uint64, r)
		s.pres = make([]uint8, r)
		s.class = make([]int32, r)
		s.comp = make([]bool, r)
		n := 1
		for n < 2*r {
			n <<= 1
		}
		s.tab = make([]uint64, n)
		s.epoch = 0
	}
	if cap(s.choice) < r*p {
		s.choice = make([]partChoice, r*p)
	}
	if cap(s.lb) < p {
		s.lb = make([]Pair, p)
		s.lbSuffix = make([]Pair, p+1)
	}
}

// dedupe canonicalizes the kernel set and returns the class count q.
// tab slots pack (epoch << 32) | (class + 1); a stale epoch means empty,
// so advancing the epoch invalidates the whole map in O(1). The epoch is
// 32 bits, so a full clear happens once every 2^32 words on wrap.
func (s *vccSearch) dedupe(kernels []uint64, mMask uint64) int {
	tab := s.tab
	s.epoch++
	if s.epoch == 0 { // wrapped: stale slots could alias the new epoch
		for i := range tab {
			tab[i] = 0
		}
		s.epoch = 1
	}
	live := uint64(s.epoch) << 32
	shift := uint(64 - bits.TrailingZeros(uint(len(tab))))
	q := 0
	for i, k := range kernels {
		canon, comp := k, false
		if kc := k ^ mMask; kc < k {
			canon, comp = kc, true
		}
		h := (canon * 0x9E3779B97F4A7C15) >> shift
		for {
			var t int32
			if e := tab[h]; e>>32 != uint64(s.epoch) {
				tab[h] = live | uint64(q+1)
				s.canon[q] = canon
				s.pres[q] = 0
				t = int32(q)
				q++
			} else {
				t = int32(e&0xFFFFFFFF) - 1
				if s.canon[t] != canon {
					h = (h + 1) & uint64(len(tab)-1)
					continue
				}
			}
			s.class[i] = t
			s.comp[i] = comp
			if comp {
				s.pres[t] |= 2
			} else {
				s.pres[t] |= 1
			}
			break
		}
	}
	return q
}

// NewVCC builds a VCC codec over n-bit planes using kernels from src
// (whose width m must divide n).
func NewVCC(n int, src KernelSource) *VCC {
	m := src.KernelBits()
	if n <= 0 || n > 64 || n%m != 0 {
		panic(fmt.Sprintf("coset: VCC kernel width %d must divide plane width %d", m, n))
	}
	p := n / m
	if p > 16 {
		panic("coset: too many partitions")
	}
	c := &VCC{n: n, m: m, p: p, src: src}
	for j := 0; j < p; j++ {
		c.repMul |= 1 << uint(j*m)
	}
	if p <= vccFlagTabMaxP {
		mMask := bitutil.Mask(m)
		c.flagTab = make([]uint64, 1<<uint(p))
		for f := 1; f < len(c.flagTab); f++ {
			low := uint(bits.TrailingZeros(uint(f)))
			c.flagTab[f] = c.flagTab[f&(f-1)] | mMask<<(low*uint(m))
		}
		if src.Stored() {
			ks := src.Kernels(0)
			c.storedTiled = make([]uint64, len(ks))
			for i, k := range ks {
				c.storedTiled[i] = k * c.repMul
			}
		} else if ka, ok := src.(KernelAtSource); ok {
			c.kat = ka
		}
	}
	return c
}

// NewVCCStored is shorthand for the paper's VCC(n, N, r) with a kernel
// ROM: r = N / 2^p kernels of m = n/p bits derived from seed.
func NewVCCStored(n, m, numVirtual int, seed uint64) *VCC {
	p := n / m
	r := numVirtual >> uint(p)
	if r < 1 || r<<uint(p) != numVirtual {
		panic(fmt.Sprintf("coset: N=%d not a multiple of 2^p=%d", numVirtual, 1<<uint(p)))
	}
	return NewVCC(n, NewStoredKernels(r, m, seed))
}

// NewVCCGenerated is shorthand for the MLC right-digit-plane
// configuration with Algorithm 2 kernels: plane width 32, kernels of m
// bits generated from the 32 left digits, N = r * 2^(32/m) virtual
// cosets.
func NewVCCGenerated(m, numVirtual int) *VCC {
	const n = 32
	p := n / m
	r := numVirtual >> uint(p)
	if r < 1 || r<<uint(p) != numVirtual {
		panic(fmt.Sprintf("coset: N=%d not a multiple of 2^p=%d", numVirtual, 1<<uint(p)))
	}
	return NewVCC(n, NewGeneratedKernels(n, m, r))
}

// Name implements Codec.
func (c *VCC) Name() string {
	kind := "Gen"
	if c.src.Stored() {
		kind = "Stored"
	}
	return fmt.Sprintf("VCC-%s(%d,%d,%d)", kind, c.n, c.NumVirtualCosets(), c.src.NumKernels())
}

// PlaneBits implements Codec.
func (c *VCC) PlaneBits() int { return c.n }

// Partitions returns p = n/m.
func (c *VCC) Partitions() int { return c.p }

// KernelBits returns m.
func (c *VCC) KernelBits() int { return c.m }

// NumKernels returns r.
func (c *VCC) NumKernels() int { return c.src.NumKernels() }

// NumVirtualCosets returns N = r * 2^p.
func (c *VCC) NumVirtualCosets() int { return c.src.NumKernels() << uint(c.p) }

// Source returns the kernel source.
func (c *VCC) Source() KernelSource { return c.src }

// AuxBits implements Codec: log2(r) kernel-select bits plus p flag bits,
// which equals log2(N) — the same auxiliary budget as RCC(n, N).
func (c *VCC) AuxBits() int { return log2(c.src.NumKernels()) + c.p }

// Encode implements Codec (Algorithm 1). Each partition decision folds in
// the write cost of its own flag bit (auxiliary cost decomposes per bit),
// and each kernel's total folds in its index bits, so the result is
// exactly the optimum over all N virtual cosets including auxiliary
// overhead — the quantity Algorithm 1 line 19 minimizes.
//
// Encode runs the partition-sliced fast path (EncodeSliced) against the
// codec-owned sliced context; EncodeRef retains the direct search. The
// two are bit-identical — enforced by TestFastEncodeMatchesReference and
// FuzzEncodeEquivalence.
func (c *VCC) Encode(data uint64, ev *Evaluator) (uint64, uint64) {
	return c.EncodeSliced(data, ev, &c.sc)
}

// EncodeRef is the reference Algorithm 1 search: every kernel prices
// both complements of every partition through the plain Evaluator. It is
// the correctness oracle the fast path is fuzzed against, and the
// fallback for contexts the sliced path cannot represent.
func (c *VCC) EncodeRef(data uint64, ev *Evaluator) (uint64, uint64) {
	d := data & bitutil.Mask(c.n)
	kernels := c.src.Kernels(ev.Ctx.NewLeft)
	mMask := bitutil.Mask(c.m)

	var bestEnc, bestAux uint64
	var bestCost Pair
	for i, k := range kernels {
		var enc, flags uint64
		var cost Pair
		for j := 0; j < c.p; j++ {
			dj := bitutil.SubBlock(d, j, c.m)
			y0 := (dj ^ k) << uint(j*c.m)
			y1 := (dj ^ (k ^ mMask)) << uint(j*c.m)
			c0 := ev.Part(y0, j, c.m).Add(ev.AuxBit(j, 0))
			c1 := ev.Part(y1, j, c.m).Add(ev.AuxBit(j, 1))
			if c1.Less(c0) {
				enc |= y1
				flags |= 1 << uint(j)
				cost = cost.Add(c1)
			} else {
				enc |= y0
				cost = cost.Add(c0)
			}
		}
		// Kernel-index bits occupy aux positions p and up.
		for b := c.p; b < c.AuxBits(); b++ {
			cost = cost.Add(ev.AuxBit(b, uint64(i)>>uint(b-c.p)&1))
		}
		aux := uint64(i)<<uint(c.p) | flags
		if i == 0 || cost.Less(bestCost) {
			bestEnc, bestAux, bestCost = enc, aux, cost
		}
	}
	return bestEnc, bestAux
}

// EncodeSliced implements FastCodec: Algorithm 1 restructured around the
// sliced write context sc (rebound here; the caller only provides the
// reusable storage). Three phases replace the reference's uniform
// r x p x 2 Evaluator sweep:
//
//  1. Kernel class layout. Stored ROMs are canonicalized once (kernels
//     k and k^mMask span the same candidate values per partition, so
//     kernels collapse into q <= r classes) and the result reused for
//     every word. Generated sources vary per word, but Algorithm 2's
//     mask width already keeps complements out of the set and exact
//     duplicates need base-vector collisions (probability ~r/2^m on
//     random data), so hashing every kernel every word costs more than
//     the rare duplicate pricing it would save: each kernel is its own
//     class, exactly the reference's view.
//  2. Per-partition candidate cost tables. For each partition j and
//     class t the candidate pair {dj^k, dj^k^mMask} is priced in one
//     PartCostPair walk through the sliced context (nibble tables when
//     bound), the flag decision (including the flag bit's own aux
//     cost, from the 2x2 table) is resolved per orientation, and a
//     component-wise cost floor per partition is recorded.
//  3. Branch-and-bound kernel scan. Each kernel's total is now a sum of
//     table entries, accumulated in the reference's summation order; a
//     kernel is abandoned as soon as its partial cost plus the floor of
//     the remaining partitions and index bits provably cannot beat the
//     incumbent: exact integer components prune at >=, noisy energy
//     components beyond pruneThreshold's slack (see there for why this
//     never changes the selected coset).
func (c *VCC) EncodeSliced(data uint64, ev *Evaluator, sc *SlicedCtx) (uint64, uint64) {
	// A context whose plane width disagrees with the codec's would slice
	// into partitions the search does not iterate; the reference path
	// defines the (degenerate) semantics of that misuse, so defer to it.
	// Each kernel prices both complements of every partition, so the
	// bind hint clears the nibble-table threshold for every real VCC
	// geometry.
	if ev.Ctx.N != c.n || !sc.BindFor(ev, c.m, 2*c.src.NumKernels()) {
		return c.EncodeRef(data, ev)
	}
	if sc.obj == ObjFlips {
		return c.encodeFlips(data, ev)
	}
	d := data & bitutil.Mask(c.n)
	kernels := c.src.Kernels(ev.Ctx.NewLeft)
	r := len(kernels)
	s := &c.fs
	// The specialization prices kernels[i] directly and never consults
	// the class tables, so it serves stored ROMs and per-word generated
	// sets alike (pricing a duplicate kernel costs four table loads —
	// cheaper than the dedupe that would skip it). Its suffix bounds
	// assume cell energies are nonnegative (remaining partitions are
	// floored at their aux cost alone), so a pathological
	// negative-coefficient model stays on the generic path, whose floors
	// are minima of actual candidate costs.
	if sc.tabOK && sc.obj == ObjEnergySAW && sc.etabFits &&
		sc.cHi >= 0 && sc.cLo >= 0 {
		return c.encodeSlicedEnergySAW(d, kernels, sc, s)
	}
	s.ensure(r, c.p)
	mMask := bitutil.Mask(c.m)
	identity := !c.src.Stored()
	var q int
	if identity {
		q = r
	} else {
		if !s.staticDone {
			s.staticQ = s.dedupe(kernels, mMask)
			s.staticDone = true
		}
		q = s.staticQ
	}

	auxBits := c.AuxBits()
	for j := 0; j < c.p; j++ {
		dj := bitutil.SubBlock(d, j, c.m)
		a0 := sc.AuxBit(j, 0)
		a1 := sc.AuxBit(j, 1)
		floor := pairInf
		row := s.choice[j*q : (j+1)*q]
		if identity {
			// Per-word kernels, plain orientation only: same decision
			// and tie-break as the reference's flag scan.
			for t := 0; t < q; t++ {
				y0 := dj ^ kernels[t]
				pc0, pc1 := sc.PartCostPair(j, y0)
				e := &row[t]
				c0 := pc0.Add(a0)
				c1 := pc1.Add(a1)
				if c1.Less(c0) {
					e.cost[0], e.enc[0], e.flag[0] = c1, y0^mMask, 1
				} else {
					e.cost[0], e.enc[0], e.flag[0] = c0, y0, 0
				}
				floor = pairFloor(floor, e.cost[0])
			}
			s.lb[j] = floor
			continue
		}
		for t := 0; t < q; t++ {
			y0 := dj ^ s.canon[t]
			y1 := y0 ^ mMask
			pc0, pc1 := sc.PartCostPair(j, y0)
			e := &row[t]
			pres := s.pres[t]
			if pres&1 != 0 { // plain orientation: flag 0 writes y0
				c0 := pc0.Add(a0)
				c1 := pc1.Add(a1)
				if c1.Less(c0) {
					e.cost[0], e.enc[0], e.flag[0] = c1, y1, 1
				} else {
					e.cost[0], e.enc[0], e.flag[0] = c0, y0, 0
				}
				floor = pairFloor(floor, e.cost[0])
			}
			if pres&2 != 0 { // complemented orientation: flag 0 writes y1
				c0 := pc1.Add(a0)
				c1 := pc0.Add(a1)
				if c1.Less(c0) {
					e.cost[1], e.enc[1], e.flag[1] = c1, y0, 1
				} else {
					e.cost[1], e.enc[1], e.flag[1] = c0, y1, 0
				}
				floor = pairFloor(floor, e.cost[1])
			}
		}
		s.lb[j] = floor
	}
	// Fold the cheapest possible index-bit spend into the bound suffix:
	// every kernel pays at least the cheaper aux value per index bit, so
	// the floor stays a valid component-wise lower bound for all of them.
	var idxFloor Pair
	for b := c.p; b < auxBits; b++ {
		idxFloor = idxFloor.Add(pairFloor(sc.AuxBit(b, 0), sc.AuxBit(b, 1)))
	}
	s.lbSuffix[c.p] = idxFloor
	for j := c.p - 1; j >= 0; j-- {
		s.lbSuffix[j] = s.lb[j].Add(s.lbSuffix[j+1])
	}

	obj := sc.obj
	var bestEnc, bestAux uint64
	var bestCost Pair
	// Precomputed prune cuts (see pruneThreshold): threshP bounds the
	// noisy primary under ObjEnergySAW, threshS the noisy secondary
	// under ObjSAWEnergy. Both refresh only when the incumbent changes,
	// so the inner check is one compare.
	var threshP, threshS float64
	for i := 0; i < r; i++ {
		t, o := i, 0
		if !identity {
			t = int(s.class[i])
			if s.comp[i] {
				o = 1
			}
		}
		var enc, flags uint64
		var cost Pair
		pruned := false
		for j := 0; j < c.p; j++ {
			e := &s.choice[j*q+t]
			cost = cost.Add(e.cost[o])
			enc |= e.enc[o] << uint(j*c.m)
			flags |= e.flag[o] << uint(j)
			if i == 0 {
				continue
			}
			lb := s.lbSuffix[j+1]
			switch obj {
			case ObjEnergySAW:
				pruned = cost.Primary+lb.Primary > threshP
			case ObjSAWEnergy:
				p := cost.Primary + lb.Primary
				pruned = p > bestCost.Primary ||
					(p == bestCost.Primary && cost.Secondary+lb.Secondary > threshS)
			default: // exact integer components: a >= bound cannot win
				p := cost.Primary + lb.Primary
				pruned = p > bestCost.Primary ||
					(p == bestCost.Primary && cost.Secondary+lb.Secondary >= bestCost.Secondary)
			}
			if pruned {
				break
			}
		}
		if pruned {
			continue
		}
		for b := c.p; b < auxBits; b++ {
			cost = cost.Add(sc.AuxBit(b, uint64(i)>>uint(b-c.p)&1))
		}
		aux := uint64(i)<<uint(c.p) | flags
		if i == 0 || cost.Less(bestCost) {
			bestEnc, bestAux, bestCost = enc, aux, cost
			switch obj {
			case ObjEnergySAW:
				threshP = pruneThreshold(bestCost.Primary)
			case ObjSAWEnergy:
				threshS = pruneThreshold(bestCost.Secondary)
			}
		}
	}
	return bestEnc, bestAux
}

// encodeSlicedEnergySAW is EncodeSliced's hot specialization: nibble
// tables bound, ObjEnergySAW with nonnegative cell energies — the
// memory-controller configuration the paper's encode-latency claim
// rests on. It prices each kernel value as supplied by the source, so
// it serves stored ROMs (whose tables BindFor now amortizes at r=16)
// exactly as it serves per-word generated sets. Instead of the generic
// fill-then-scan structure it runs one lazy pass in kernel order: each
// partition of a kernel is priced on demand (one fused table walk
// yields both orientations' packed counts; the energy
// multiply-accumulate is memoized per count pair in sc.etab) and the
// kernel is abandoned the moment its partial cost plus the remaining
// partitions' aux-cost floor cannot beat the incumbent. Pruned kernels
// therefore never touch their remaining partitions at all, and nothing
// is ever staged in memory.
//
// Bit-identity with EncodeRef: the per-partition decision compares the
// identical c0/c1 float values (same MAC expression shape, term for
// term, same evaluation order) with the SAW tie-break on raw integer
// counts (int -> float64 is monotone and exact in this range, and aux
// Pairs under ObjEnergySAW carry zero Secondary, so the SAW component
// of any candidate sum is exactly float64 of its integer count); the
// kernel total accumulates in the reference's partition order; and the
// incumbent updates on the reference's exact comparison in the
// reference's kernel order. Pruning uses pruneThreshold against a sound
// lower bound of the remaining cost (energies are nonnegative — the
// dispatch guard — and each remaining aux bit costs at least its
// cheaper value), so no kernel that could have updated the incumbent is
// ever skipped. The bound is weaker than the generic path's measured
// per-partition floors, but the prune only has to pay for itself: here
// a successful first-partition cut saves whole candidate evaluations,
// not just table loads.
func (c *VCC) encodeSlicedEnergySAW(d uint64, kernels []uint64, sc *SlicedCtx, s *vccSearch) (uint64, uint64) {
	q := len(kernels)
	mMask := bitutil.Mask(c.m)
	groups := sc.groups
	auxBits := c.AuxBits()
	nb := auxBits - c.p
	etab := &sc.etab

	// Hoisted per-partition state: sub-blocks, flag aux-bit costs, and
	// the suffix floors suff[j] = sum of min aux cost over partitions
	// j..p-1 plus the index-bit floor.
	var djv [maxSlices]uint64
	var a0, a1 [maxSlices]float64
	var suff [maxSlices + 1]float64
	for j := 0; j < c.p; j++ {
		djv[j] = bitutil.SubBlock(d, j, c.m)
		a0[j] = sc.AuxBit(j, 0).Primary
		a1[j] = sc.AuxBit(j, 1).Primary
	}
	useIdxTab := nb <= len(s.idxP[0])
	idxFloorP := 0.0
	for b := 0; b < nb; b++ {
		f0 := sc.AuxBit(c.p+b, 0).Primary
		f1 := sc.AuxBit(c.p+b, 1).Primary
		if useIdxTab {
			s.idxP[0][b], s.idxP[1][b] = f0, f1
		}
		if f1 < f0 {
			f0 = f1
		}
		idxFloorP += f0
	}
	suff[c.p] = idxFloorP
	for j := c.p - 1; j >= 0; j-- {
		af := a0[j]
		if a1[j] < af {
			af = a1[j]
		}
		suff[j] = af + suff[j+1]
	}

	var bestEnc, bestAux uint64
	var bestP float64
	var bestSaw uint64
	var threshP float64
	if c.p == 2 && groups == 4 {
		// The headline geometry (n=32, m=16, MLC plane): both partition
		// evaluations unrolled with every loop-invariant in a register,
		// and the orientation select computed branch-free. The select
		// works on IEEE bit patterns: candidate energies are nonnegative
		// finite floats, for which Float64bits is monotone and injective,
		// so the lexicographic (energy, SAW) comparison and the value
		// select itself run as integer mask algebra — the chosen value is
		// bit-identical to the branchy compare's, with no 50/50 data-
		// dependent branch in the loop body.
		t40 := sc.nibTab[0:64]
		t41 := sc.nibTab[64:128]
		d0, d1 := djv[0], djv[1]
		a00, a10 := a0[0], a1[0]
		a01, a11 := a0[1], a1[1]
		suff1, suff2 := suff[1], suff[2]
		shm := uint(c.m)
		for i := 0; i < q; i++ {
			k := kernels[i]
			y0 := d0 ^ k
			acc := t40[y0&0xF] + t40[16+(y0>>4&0xF)] +
				t40[32+(y0>>8&0xF)] + t40[48+(y0>>12&0xF)]
			acc0 := uint32(acc)
			acc1 := uint32(acc >> 32)
			b0 := math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a00)
			b1 := math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a10)
			saw0 := uint64(acc0 >> 16)
			saw1 := uint64(acc1 >> 16)
			// w = all-ones iff (c1p, saw1) < (c0p, saw0) lexicographically.
			e := b0 ^ b1
			mNE := uint64(int64(e|(0-e)) >> 63)
			mLT := uint64((int64(b1) - int64(b0)) >> 63)
			w := mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp := math.Float64frombits(b0 ^ (e & w))
			enc := y0 ^ (mMask & w)
			flags := w & 1
			saw := saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff1 > threshP {
				continue
			}
			y1 := d1 ^ k
			acc = t41[y1&0xF] + t41[16+(y1>>4&0xF)] +
				t41[32+(y1>>8&0xF)] + t41[48+(y1>>12&0xF)]
			acc0 = uint32(acc)
			acc1 = uint32(acc >> 32)
			b0 = math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a01)
			b1 = math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a11)
			saw0 = uint64(acc0 >> 16)
			saw1 = uint64(acc1 >> 16)
			e = b0 ^ b1
			mNE = uint64(int64(e|(0-e)) >> 63)
			mLT = uint64((int64(b1) - int64(b0)) >> 63)
			w = mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp += math.Float64frombits(b0 ^ (e & w))
			enc |= (y1 ^ (mMask & w)) << shm
			flags |= (w & 1) << 1
			saw += saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff2 > threshP {
				continue
			}
			if useIdxTab {
				for b := 0; b < nb; b++ {
					cp += s.idxP[uint64(i)>>uint(b)&1][b]
				}
			} else {
				for b := c.p; b < auxBits; b++ {
					cp += sc.AuxBit(b, uint64(i)>>uint(b-c.p)&1).Primary
				}
			}
			if i == 0 || cp < bestP || (cp == bestP && saw < bestSaw) {
				bestEnc = enc
				bestAux = uint64(i)<<2 | flags
				bestP, bestSaw = cp, saw
				threshP = pruneThreshold(bestP)
			}
		}
		return bestEnc, bestAux
	}
	if c.p == 4 && groups == 4 {
		// The full-word stored geometry (n=64, m=16 — the engine's
		// default codec, SLC or full-word MLC): all four partition
		// evaluations unrolled with the same branch-free IEEE-bit
		// select as the p=2 plane variant above, loop-invariants
		// (table windows, aux costs, suffix floors) held in registers
		// and a prune check after every partition.
		t40 := sc.nibTab[0:64]
		t41 := sc.nibTab[64:128]
		t42 := sc.nibTab[128:192]
		t43 := sc.nibTab[192:256]
		d0, d1, d2, d3 := djv[0], djv[1], djv[2], djv[3]
		a00, a10 := a0[0], a1[0]
		a01, a11 := a0[1], a1[1]
		a02, a12 := a0[2], a1[2]
		a03, a13 := a0[3], a1[3]
		suff1, suff2, suff3, suff4 := suff[1], suff[2], suff[3], suff[4]
		shm := uint(c.m)
		for i := 0; i < q; i++ {
			k := kernels[i]
			y := d0 ^ k
			acc := t40[y&0xF] + t40[16+(y>>4&0xF)] +
				t40[32+(y>>8&0xF)] + t40[48+(y>>12&0xF)]
			acc0 := uint32(acc)
			acc1 := uint32(acc >> 32)
			b0 := math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a00)
			b1 := math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a10)
			saw0 := uint64(acc0 >> 16)
			saw1 := uint64(acc1 >> 16)
			e := b0 ^ b1
			mNE := uint64(int64(e|(0-e)) >> 63)
			mLT := uint64((int64(b1) - int64(b0)) >> 63)
			w := mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp := math.Float64frombits(b0 ^ (e & w))
			enc := y ^ (mMask & w)
			flags := w & 1
			saw := saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff1 > threshP {
				continue
			}
			y = d1 ^ k
			acc = t41[y&0xF] + t41[16+(y>>4&0xF)] +
				t41[32+(y>>8&0xF)] + t41[48+(y>>12&0xF)]
			acc0 = uint32(acc)
			acc1 = uint32(acc >> 32)
			b0 = math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a01)
			b1 = math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a11)
			saw0 = uint64(acc0 >> 16)
			saw1 = uint64(acc1 >> 16)
			e = b0 ^ b1
			mNE = uint64(int64(e|(0-e)) >> 63)
			mLT = uint64((int64(b1) - int64(b0)) >> 63)
			w = mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp += math.Float64frombits(b0 ^ (e & w))
			enc |= (y ^ (mMask & w)) << shm
			flags |= (w & 1) << 1
			saw += saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff2 > threshP {
				continue
			}
			y = d2 ^ k
			acc = t42[y&0xF] + t42[16+(y>>4&0xF)] +
				t42[32+(y>>8&0xF)] + t42[48+(y>>12&0xF)]
			acc0 = uint32(acc)
			acc1 = uint32(acc >> 32)
			b0 = math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a02)
			b1 = math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a12)
			saw0 = uint64(acc0 >> 16)
			saw1 = uint64(acc1 >> 16)
			e = b0 ^ b1
			mNE = uint64(int64(e|(0-e)) >> 63)
			mLT = uint64((int64(b1) - int64(b0)) >> 63)
			w = mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp += math.Float64frombits(b0 ^ (e & w))
			enc |= (y ^ (mMask & w)) << (2 * shm)
			flags |= (w & 1) << 2
			saw += saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff3 > threshP {
				continue
			}
			y = d3 ^ k
			acc = t43[y&0xF] + t43[16+(y>>4&0xF)] +
				t43[32+(y>>8&0xF)] + t43[48+(y>>12&0xF)]
			acc0 = uint32(acc)
			acc1 = uint32(acc >> 32)
			b0 = math.Float64bits(etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a03)
			b1 = math.Float64bits(etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a13)
			saw0 = uint64(acc0 >> 16)
			saw1 = uint64(acc1 >> 16)
			e = b0 ^ b1
			mNE = uint64(int64(e|(0-e)) >> 63)
			mLT = uint64((int64(b1) - int64(b0)) >> 63)
			w = mLT | (^mNE & uint64((int64(saw1)-int64(saw0))>>63))
			cp += math.Float64frombits(b0 ^ (e & w))
			enc |= (y ^ (mMask & w)) << (3 * shm)
			flags |= (w & 1) << 3
			saw += saw0 ^ ((saw0 ^ saw1) & w)
			if i > 0 && cp+suff4 > threshP {
				continue
			}
			if useIdxTab {
				for b := 0; b < nb; b++ {
					cp += s.idxP[uint64(i)>>uint(b)&1][b]
				}
			} else {
				for b := c.p; b < auxBits; b++ {
					cp += sc.AuxBit(b, uint64(i)>>uint(b-c.p)&1).Primary
				}
			}
			if i == 0 || cp < bestP || (cp == bestP && saw < bestSaw) {
				bestEnc = enc
				bestAux = uint64(i)<<4 | flags
				bestP, bestSaw = cp, saw
				threshP = pruneThreshold(bestP)
			}
		}
		return bestEnc, bestAux
	}
	for i := 0; i < q; i++ {
		k := kernels[i]
		var enc, flags, saw uint64
		var cp float64
		pruned := false
		for j := 0; j < c.p; j++ {
			y0 := djv[j] ^ k
			var acc uint64
			if groups == 4 {
				// The dominant geometry (m=16): four independent loads
				// from a bounds-check-free 64-entry window.
				t4 := sc.nibTab[j*64:][:64]
				acc = t4[y0&0xF] + t4[16+(y0>>4&0xF)] +
					t4[32+(y0>>8&0xF)] + t4[48+(y0>>12&0xF)]
			} else {
				row := sc.nibTab[j*groups*16:]
				v := y0
				for g := 0; g < groups; g++ {
					acc += row[v&0xF]
					row = row[16:]
					v >>= 4
				}
			}
			acc0 := uint32(acc)
			acc1 := uint32(acc >> 32)
			c0p := etab[(acc0&0x3F)|(acc0>>2&0xFC0)] + a0[j]
			c1p := etab[(acc1&0x3F)|(acc1>>2&0xFC0)] + a1[j]
			saw0 := acc0 >> 16
			saw1 := acc1 >> 16
			sh := uint(j * c.m)
			if c1p < c0p || (c1p == c0p && saw1 < saw0) {
				cp += c1p
				enc |= (y0 ^ mMask) << sh
				flags |= uint64(1) << uint(j)
				saw += uint64(saw1)
			} else {
				cp += c0p
				enc |= y0 << sh
				saw += uint64(saw0)
			}
			if i > 0 && cp+suff[j+1] > threshP {
				pruned = true
				break
			}
		}
		if pruned {
			continue
		}
		if useIdxTab {
			for b := 0; b < nb; b++ {
				cp += s.idxP[uint64(i)>>uint(b)&1][b]
			}
		} else {
			for b := c.p; b < auxBits; b++ {
				cp += sc.AuxBit(b, uint64(i)>>uint(b-c.p)&1).Primary
			}
		}
		if i == 0 || cp < bestP || (cp == bestP && saw < bestSaw) {
			bestEnc = enc
			bestAux = uint64(i)<<uint(c.p) | flags
			bestP, bestSaw = cp, saw
			threshP = pruneThreshold(bestP)
		}
	}
	return bestEnc, bestAux
}

// encodeFlips is EncodeSliced's ObjFlips kernel (the engine default).
// Flip and aux-bit costs are small integers, so the reference's float
// compares are integer compares, and each kernel prices all p
// partitions at once in SWAR lanes: lane j holds partition j's cells (m
// bits, or 2m word bits on an MLC right-digit plane). Writing y changes
// the cells of base ^ (y & free), base being the old word with stuck
// values (and an MLC plane's left digits) applied and free the cells y
// drives; so orientation 0, y0 = d ^ tile(k), changes x0 = base ^ (y0 &
// free) and orientation 1 changes x0 ^ free. MLC symbols fold to one bit.
// Lane popcounts plus the flag bits' aux costs are the reference's c0
// and c1; a borrow compare takes c1 < c0 per lane (its strict Less), the
// same mask selects the costs and complements the winning partitions,
// and a horizontal sum plus the index bits' popcount is the kernel
// total, scanned in order with a strict < as the reference does. Lane
// costs (at most w/2+1 folded or w+1 plain) must stay below the lane's
// top bit, so lane widths other than a power of two >= 4 take EncodeRef.
func (c *VCC) encodeFlips(data uint64, ev *Evaluator) (uint64, uint64) {
	x := &ev.Ctx
	w, ones, width := uint(c.m), c.repMul, c.n
	sm := x.StuckMask
	base := x.OldWord ^ x.StuckVal&sm
	free := ^sm
	if x.MLCPlane {
		w, ones, width = 2*w, bitutil.SpreadEven(ones), 2*width
		base ^= ev.leftSpread &^ sm
		free &= evenBits
	}
	if w < 4 || w&(w-1) != 0 {
		return c.EncodeRef(data, ev)
	}
	l := newSwarLanes(w, ones)
	wm := bitutil.Mask(width)
	base &= wm
	free &= wm
	fold := x.Mode == pcm.MLC
	var a0 uint64
	for j := 0; j < c.p; j++ {
		a0 |= x.OldAux >> uint(j) & 1 << (uint(j) * w)
	}
	a1 := a0 ^ ones
	oldIdx := x.OldAux >> uint(c.p)
	idxMask := bitutil.Mask(c.AuxBits() - c.p)
	d := data & bitutil.Mask(c.n)

	var bestY, bestLT uint64
	best, bestI := 0, 0
	rep, plane := c.repMul, x.MLCPlane
	for i, k := range c.src.Kernels(x.NewLeft) {
		y0 := d ^ k*rep
		ys := y0
		if plane {
			ys = bitutil.SpreadEven(y0)
		}
		x0 := base ^ ys&free
		x1 := x0 ^ free
		if fold {
			x0 = (x0 | x0>>1) & evenBits
			x1 = (x1 | x1>>1) & evenBits
		}
		c0 := l.count(x0) + a0
		c1 := l.count(x1) + a1
		lt := l.less(c1, c0)
		cost := int(l.sum(c0^(c0^c1)&lt)) + bits.OnesCount64((uint64(i)^oldIdx)&idxMask)
		if i == 0 || cost < best {
			best, bestI, bestY, bestLT = cost, i, y0, lt
		}
	}
	var flags uint64
	for j := 0; j < c.p; j++ {
		flags |= bestLT >> (uint(j) * w) & 1 << uint(j)
	}
	if plane {
		bestLT = bitutil.CompressEven(bestLT)
	}
	return bestY ^ bestLT, uint64(bestI)<<uint(c.p) | flags
}

// evenBits selects bit 0 of every 2-bit MLC symbol.
const evenBits = 0x5555555555555555

// swarLanes views a word as lanes of w bits, w a power of two in [4,
// 64], given by ones (bit 0 of each lane); hi is each lane's top bit and
// lo its low byte (for w >= 8).
type swarLanes struct {
	w            uint
	ones, hi, lo uint64
}

func newSwarLanes(w uint, ones uint64) swarLanes {
	return swarLanes{w: w, ones: ones, hi: ones << (w - 1), lo: ones * 0xFF}
}

// count replaces each lane of x by its popcount: SWAR nibble counts
// (final for 4-bit lanes), byte counts, then one multiply sums a lane's
// bytes into its top byte, shifted down to the low byte. No product
// byte exceeds 64, so nothing carries between bytes.
func (l swarLanes) count(x uint64) uint64 {
	x -= x >> 1 & evenBits
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	if l.w == 4 {
		return x
	}
	x = (x + x>>4) & 0x0F0F0F0F0F0F0F0F
	return x * (0x0101010101010101 >> ((64 - l.w) & 63)) >> ((l.w - 8) & 63) & l.lo
}

// less is all ones in each lane where a < b. With lane values below hi,
// (a | hi) - b never borrows across lanes and clears hi iff a < b.
func (l swarLanes) less(a, b uint64) uint64 {
	t := ^((a | l.hi) - b) & l.hi
	return t - t>>((l.w-1)&63) | t
}

// sum adds all lanes of x (4-bit lanes first paired into bytes, wider
// ones holding their value in the low byte); the total must fit a byte.
func (l swarLanes) sum(x uint64) uint64 {
	if l.w == 4 {
		x = x&0x0F0F0F0F0F0F0F0F + x>>4&0x0F0F0F0F0F0F0F0F
	}
	return x * 0x0101010101010101 >> 56
}

// Decode implements Codec: the inverse is a single XOR/XNOR per
// partition, selected by the stored flags (Section IV-A: "the process of
// decoding is simpler ... and incurs negligible latency overhead").
func (c *VCC) Decode(enc, aux, left uint64) uint64 {
	kernels := c.src.Kernels(left)
	i := aux >> uint(c.p)
	flags := aux & bitutil.Mask(c.p)
	if int(i) >= len(kernels) {
		panic(fmt.Sprintf("coset: VCC kernel index %d out of range", i))
	}
	k := kernels[i]
	mMask := bitutil.Mask(c.m)
	var out uint64
	for j := 0; j < c.p; j++ {
		yj := bitutil.SubBlock(enc, j, c.m)
		kj := k
		if flags>>uint(j)&1 == 1 {
			kj ^= mMask
		}
		out |= (yj ^ kj) << uint(j*c.m)
	}
	return out
}

// DecodeWords implements LineDecoder. Per word the whole partition loop
// of Decode collapses into three XORs against precomputed state:
//
//	out = (enc & Mask(n)) ^ tile(kernel) ^ flagTab[flags]
//
// Bit-identity with Decode is structural, not approximate: Decode
// assembles Sum_j (SubBlock(enc,j,m) ^ k_j) << j*m where k_j is the
// kernel or its m-bit complement per flag bit j. The sub-block
// reassembly of enc is enc & Mask(n); the kernel terms are the kernel
// tiled across all partitions (repMul); and the per-flag complements
// are Mask(m) at each flagged partition — exactly flagTab's entry. XOR
// is bitwise, so regrouping the terms cannot change any bit. Stored
// ROMs read their kernel pre-tiled from storedTiled; generated sources
// produce the single indexed kernel via KernelAt instead of expanding
// all r kernels per word as Decode must.
func (c *VCC) DecodeWords(enc, aux, left, out []uint64) {
	r := c.src.NumKernels()
	nMask := bitutil.Mask(c.n)
	pMask := bitutil.Mask(c.p)
	sh := uint(c.p)
	switch {
	case c.storedTiled != nil:
		for i, a := range aux {
			ki := a >> sh
			if ki >= uint64(r) {
				panic(fmt.Sprintf("coset: VCC kernel index %d out of range", ki))
			}
			out[i] = (enc[i] & nMask) ^ c.storedTiled[ki] ^ c.flagTab[a&pMask]
		}
	case c.kat != nil:
		for i, a := range aux {
			ki := a >> sh
			if ki >= uint64(r) {
				panic(fmt.Sprintf("coset: VCC kernel index %d out of range", ki))
			}
			k := c.kat.KernelAt(left[i], int(ki))
			out[i] = (enc[i] & nMask) ^ k*c.repMul ^ c.flagTab[a&pMask]
		}
	default:
		for i := range aux {
			out[i] = c.Decode(enc[i], aux[i], left[i])
		}
	}
}

// VirtualCoset materializes virtual coset candidate with the given aux
// index for a word whose left plane is left: the full n-bit XOR vector
// the encoder implicitly applied. Exposed for tests and for the analytic
// comparisons against RCC.
func (c *VCC) VirtualCoset(aux, left uint64) uint64 {
	kernels := c.src.Kernels(left)
	i := aux >> uint(c.p)
	flags := aux & bitutil.Mask(c.p)
	k := kernels[i]
	mMask := bitutil.Mask(c.m)
	var v uint64
	for j := 0; j < c.p; j++ {
		kj := k
		if flags>>uint(j)&1 == 1 {
			kj ^= mMask
		}
		v |= kj << uint(j*c.m)
	}
	return v
}
