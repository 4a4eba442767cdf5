package faultmodel

import (
	"math"
	"sort"
	"sync"
	"unsafe"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// The candidate-cell disturb kernel.
//
// Every characterization experiment reduces to asking, millions of
// times, "which cells in this row flip under this effective hammer
// count?". The reference path (disturbReference) answers by re-hashing
// every bit of the row on every call. This kernel instead memoizes,
// per (bank, row), the full candidate-cell set with all hash-derived
// parameters precomputed, sorted ascending by rel — the cell threshold
// relative to the row HCfirst. A disturb call then binary-searches the
// cutoff reachable at the ledger's effective hammer count and walks
// only the candidates below it, evaluating the remaining per-call
// predicates lazily per candidate. The walk is trial-batched: the
// cutoff search and the trial-independent predicates (stored data
// orientation, gating temperature, aggressor coupling) run once per
// candidate, and only the per-trial noise comparison runs per salt,
// each salt accumulating its own flip bitplane (see disturbBatch and
// the replay cache in replay.go).
//
// Equivalence with the reference path is load-bearing: the builder
// replays the exact hash draws and float expressions of
// disturbReference (rel grouping included — float multiplication is
// not associative), and the differential tests in kernel_test.go
// assert bit-identical flip sets across profiles, temperatures, data
// patterns, seeds, and salts.

// tempMargin is half of the 5 °C test step (exclusive): the slack
// around a cell's vulnerable range and gap point.
const tempMargin = 2.4

// candidate is one vulnerable cell of a row with every hash-derived
// parameter resolved at build time.
type candidate struct {
	rel     float64 // mult × colFactor: threshold ≡ rowHC × rel (sort key)
	h       uint64  // per-cell hash (feeds the salted trial noise)
	loGate  float64 // reject when tempC < loGate (−Inf: censored at 50 °C)
	hiGate  float64 // reject when tempC > hiGate (+Inf: censored at 90 °C)
	gapT    float64 // skipped interior temperature point (NaN: no gap)
	bit     int32
	charged uint8 // 1 ⇒ true-cell
}

// candidateBytes is the per-cell cache cost, for sizing the LRU.
const candidateBytes = int(unsafe.Sizeof(candidate{}))

// candCacheBudgetBytes bounds the total candidate-cache memory per
// cache (shared across every model attached to it). 64 MiB holds
// hundreds of rows at bench geometries and ~170 rows at the paper-scale
// 8 Ki-bit geometry (~384 KiB of candidates per row).
const candCacheBudgetBytes = 64 << 20

// candShardCount is the power-of-two number of candLRU shards. Each
// shard has its own lock and an equal slice of the byte budget, so
// parallel measurement cores touching different rows lock different
// shards instead of serializing on one cache.
const candShardCount = 8

// buildCandidates generates the sorted candidate set of one row. The
// per-cell draws mirror disturbReference exactly, using the
// fixed-arity hash fast paths (bit-identical to the variadic Hash64).
//
// The build runs in two passes over per-model scratch. The first draws
// every cell's rel and records it as a (Float64bits(rel), bit) pair;
// rel ≥ minCellMult·minColFactor > 0, so the IEEE-754 bits order like
// the floats, and the pairs arrive in bit order, so the stable radix
// sort (sortKeyed) yields exactly the (rel, bit) order. The second
// pass walks the sorted pairs, resolves each cell's temperature draws
// and writes the one exactly-sized slice the cache keeps.
func (m *Model) buildCandidates(bank, row int) []candidate {
	rowBits := m.geo.RowBits()
	cw := m.geo.ChipWidth
	chips := m.geo.Chips
	if cap(m.buildKeys) < rowBits {
		m.buildKeys = make([]keyedIndex, rowBits)
		m.buildBuf = make([]keyedIndex, rowBits)
	}
	keys := m.buildKeys[:0]
	// The (seed, bank, row) fold is shared by every bit of the row;
	// Hash64Suffix completes it per bit, bit-identically to Hash64x4.
	prefix := rng.HashPrefix(m.seed, uint64(bank), uint64(row))
	scale := float64(rowBits)
	invAlpha := 1 / m.p.TailAlpha
	for bit := 0; bit < rowBits; bit++ {
		h := rng.Hash64Suffix(prefix, uint64(bit))

		u := rng.Uniform01(rng.Hash64x2(h, keyCellMult1))
		if u > m.p.VulnFrac {
			continue
		}
		mult := math.Pow(scale*u, invAlpha)
		if mult < minCellMult {
			mult = minCellMult
		}

		line := bit % cw
		rest := bit / cw
		chip := rest % chips
		col := rest / chips
		rel := mult * m.colFactor[chip][col*cw+line]
		keys = append(keys, keyedIndex{key: math.Float64bits(rel), idx: uint32(bit)})
	}
	sortKeyed(keys, m.buildBuf)

	cells := make([]candidate, len(keys))
	for i, e := range keys {
		h := rng.Hash64Suffix(prefix, uint64(e.idx))
		// Resolve the temperature range and gap draws once; censored
		// bounds become infinite gates and "no gap" becomes NaN, so
		// the walk needs only three float compares.
		lo, hi := m.cellTempRange(h)
		loGate := math.Inf(-1)
		if lo > 50 {
			loGate = lo - tempMargin
		}
		hiGate := math.Inf(1)
		if hi < 90 {
			hiGate = hi + tempMargin
		}
		gapT := math.NaN()
		if hi-lo >= 10 && m.p.GapProb > 0 {
			if rng.Uniform01(rng.Hash64x2(h, keyCellGapU)) < m.p.GapProb {
				interior := int(hi-lo)/5 - 1
				pick := int(rng.Uniform01(rng.Hash64x2(h, keyCellGapT)) * float64(interior))
				if pick >= interior {
					pick = interior - 1
				}
				gapT = lo + float64(5*(pick+1))
			}
		}
		cells[i] = candidate{
			rel:     math.Float64frombits(e.key),
			h:       h,
			loGate:  loGate,
			hiGate:  hiGate,
			gapT:    gapT,
			bit:     int32(e.idx),
			charged: uint8(h & 1),
		}
	}
	return cells
}

// candidates returns the row's candidate set, building and caching it
// on first use. The returned slice is read-only: it may be shared
// with other models attached to the same cache on other goroutines.
func (m *Model) candidates(bank, row int) []candidate {
	key := uint64(bank)<<32 | uint64(uint32(row))
	if cs, ok := m.candCache.get(key); ok {
		return cs
	}
	cs := m.buildCandidates(bank, row)
	m.candCache.put(key, cs)
	return cs
}

// disturbBatch is the trial-batched kernel walk. A cell can flip only
// when heff·coupling ≥ rowHC·rel·noise with coupling ≤ 1 and noise ≥
// exp(−σ·zmax), so candidates with rel above the inflated cutoff are
// unreachable under every salt and the sorted order lets a binary
// search skip them all at once. masks[i] (len == len(ctx.Data), zeroed
// here) and flips[i] receive salt i's flip bitplane and count.
func (m *Model) disturbBatch(ctx dram.DisturbContext, rp rowParams, heff, tempC float64, salts []uint64, masks [][]uint64, flips []int) {
	for i := range masks {
		clearWords(masks[i])
		flips[i] = 0
	}
	cells := m.candidates(ctx.Bank, ctx.Row)

	cut := heff / (rp.hc * minCoupling)
	salted := false
	for _, s := range salts {
		if s != 0 {
			salted = true
			break
		}
	}
	if salted {
		cut *= math.Exp(trialNoiseSigma * trialNoiseZMax)
	}
	n := sort.Search(len(cells), func(i int) bool { return cells[i].rel > cut })

	up, down := ctx.Up, ctx.Down
	for i := 0; i < n; i++ {
		c := &cells[i]

		word, off := int(c.bit)>>6, uint(c.bit)&63
		stored := ctx.Data[word] >> off & 1
		if stored != uint64(c.charged) {
			continue
		}

		// Gate comparisons are false for −Inf/+Inf/NaN exactly where
		// tempInRange accepts, so censored ranges and gap-free cells
		// pass for free.
		if tempC < c.loGate || tempC > c.hiGate || math.Abs(tempC-c.gapT) < tempMargin {
			continue
		}

		coupling := minCoupling
		if bitDiffers(up, word, off, stored) || bitDiffers(down, word, off, stored) {
			coupling = 1.0
		}

		base := rp.hc * c.rel
		eff := heff * coupling
		for si, salt := range salts {
			if salt == 0 {
				if eff < base {
					continue
				}
			} else if eff < base*trialNoiseFloor {
				// Below even the most favorable truncated noise draw.
				continue
			} else if eff < base*trialNoiseCeil && eff < base*m.trialNoiseFactorFor(c.h, salt) {
				// Marginal band: only here does the outcome depend on
				// the cell's actual noise draw, so only here do we pay
				// for it — once per (cell, salt) that lands in the band.
				continue
			}
			masks[si][word] |= 1 << off
			flips[si]++
		}
	}
}

// clearWords zeroes a word slice (compiles to a memclr).
func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
	}
}

// candLRU is a sharded, byte-budgeted, least-recently-used cache of
// candidate sets, keyed like rowCache by bank<<32|row. The key hashes
// onto one of candShardCount shards, each with its own lock and an
// equal slice of the global byte budget (the per-shard budgets sum to
// candCacheBudgetBytes), so parallel measurement cores sharing one
// cache do not serialize on a single mutex.
type candLRU struct {
	shards [candShardCount]candShard
}

type candShard struct {
	mu          sync.Mutex
	budgetBytes int
	bytes       int
	entries     map[uint64]*candEntry
	head        *candEntry // most recently used
	tail        *candEntry
}

type candEntry struct {
	key        uint64
	cells      []candidate
	bytes      int
	prev, next *candEntry
}

// newCandLRU builds a sharded LRU holding at most budgetBytes of
// candidate data in total, split evenly across the shards.
func newCandLRU(budgetBytes int) *candLRU {
	per := budgetBytes / candShardCount
	if per < 1 {
		per = 1
	}
	l := &candLRU{}
	for i := range l.shards {
		l.shards[i].budgetBytes = per
		l.shards[i].entries = make(map[uint64]*candEntry)
	}
	return l
}

// shardFor selects the shard for a key via a splitmix64 finalizer, so
// the adjacent rows a hammer program touches spread across shards.
func (l *candLRU) shardFor(key uint64) *candShard {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return &l.shards[h&(candShardCount-1)]
}

func (l *candLRU) get(key uint64) ([]candidate, bool) {
	s := l.shardFor(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	cells := e.cells
	s.mu.Unlock()
	return cells, true
}

func (l *candLRU) put(key uint64, cells []candidate) {
	cost := len(cells) * candidateBytes
	s := l.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.bytes += cost - e.bytes
		e.cells, e.bytes = cells, cost
		s.moveToFront(e)
	} else {
		e := &candEntry{key: key, cells: cells, bytes: cost}
		s.entries[key] = e
		s.pushFront(e)
		s.bytes += cost
	}
	// Evict least-recently-used entries beyond the shard budget. The
	// newest entry always survives, so a row larger than the whole
	// budget is still cached (and evicted by the next insert).
	for s.bytes > s.budgetBytes && len(s.entries) > 1 {
		evict := s.tail
		s.unlink(evict)
		delete(s.entries, evict.key)
		s.bytes -= evict.bytes
	}
}

// totalBytes sums the cached candidate bytes across shards (test and
// diagnostic use).
func (l *candLRU) totalBytes() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// lenEntries counts cached rows across shards (test use).
func (l *candLRU) lenEntries() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (s *candShard) pushFront(e *candEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *candShard) unlink(e *candEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *candShard) moveToFront(e *candEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
