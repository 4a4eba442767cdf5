package faultmodel

import (
	"fmt"
	"math"

	"rowhammer/internal/dram"
	"rowhammer/internal/rng"
)

// Reference conditions: the baseline DDR4 timings and temperature at
// which profile HCfirst values are calibrated.
const (
	refAggOnNs  = 34.5
	refAggOffNs = 16.5
	refTempC    = 50.0
)

// Distance weights: a double-sided victim receives one unit of
// effective hammering per hammer (two distance-1 activations × 0.5);
// distance-2 aggression has a small residual effect.
const (
	weightDist1 = 0.5
	weightDist2 = 0.02
)

// Hash stream discriminators (arbitrary distinct constants).
const (
	keyRow       = 0x1001
	keyRowU      = 0x1002
	keyRowInf    = 0x1003
	keyCellMult1 = 0x2001
	keyCellMult2 = 0x2002
	keyCellRange = 0x2003
	keyCellGapU  = 0x2004
	keyCellGapT  = 0x2005
	keyColDesign = 0x3001
	keyColProc   = 0x3002
	keyModule    = 0x4001
	keyNoise1    = 0x5001
	keyNoise2    = 0x5002
)

// trialNoiseSigma is the lognormal sigma of per-measurement threshold
// noise applied when a non-zero salt is set (models run-to-run
// variation; the paper repeats each test five times and keeps the
// minimum HCfirst).
const trialNoiseSigma = 0.04

// trialNoiseZMax truncates the trial-noise deviate to ±4σ. The bound
// makes the noise factor range [exp(-σ·4), exp(σ·4)] ≈ [0.85, 1.17],
// which gives the candidate walk a finite threshold-cutoff inflation;
// an unbounded Box-Muller draw (|z| up to ~37 at the Uniform01
// resolution) would force the walk to visit essentially every cell.
// Only ~6e-5 of draws are affected by the truncation.
const trialNoiseZMax = 4.0

// trialNoiseFloor/Ceil bound every possible trialNoiseFactor value,
// padded by a relative epsilon so the bounds stay conservative even if
// math.Exp is not perfectly monotone at the truncation boundary. The
// kernel walk uses them to decide unambiguous cells without paying for
// the Box-Muller draw; cells inside the band get the exact factor.
var (
	trialNoiseFloor = math.Exp(-trialNoiseSigma*trialNoiseZMax) * (1 - 1e-12)
	trialNoiseCeil  = math.Exp(trialNoiseSigma*trialNoiseZMax) * (1 + 1e-12)
)

// minCellMult and minColFactor clamp the threshold factors from below,
// giving the early-out bound a hard floor and keeping the Fig. 11 row
// quantile calibration intact (without the clamp, the global minimum
// over millions of Pareto draws would fall far below the anchored
// per-row minimum).
const (
	minCellMult  = 0.6
	minColFactor = 0.35
)

// Config configures a Model for one module.
type Config struct {
	Profile *Profile
	// ModuleSeed identifies the module: process variation (row, cell,
	// per-chip column factors, module base HC) derives from it.
	ModuleSeed uint64
	Geometry   dram.Geometry
}

// Model implements dram.Disturber with the calibrated per-cell
// parametric RowHammer model. A Model belongs to exactly one module
// and is not safe for concurrent use.
type Model struct {
	p      *Profile
	seed   uint64
	geo    dram.Geometry
	baseHC float64

	// colFactor[chip][arrayCol]: per-column threshold multipliers.
	colFactor [][]float64
	// tempCum is the cumulative probability of p.TempClusters.
	tempCum []float64

	rowCache map[uint64]rowParams
	// candCache memoizes per-(bank,row) candidate-cell sets, the
	// threshold-sorted working set of the disturb kernel (kernel.go).
	// Sharded and lock-protected; may be shared between the models of
	// cloned benches (ShareKernelCache).
	candCache *candLRU
	// replay memoizes whole disturb evaluations by exact input
	// (replay.go); per-model, unlocked.
	replay *replayCache

	salt uint64
	// batchSalts is the declared trial batch (SetTrialSalts): every
	// salt the enclosing repetition loop will run, so one walk can
	// evaluate them all.
	batchSalts []uint64
	soloSalt   [1]uint64

	// Walk scratch, reused across Disturb calls (zero-alloc steady
	// state): maskArena backs walkMasks, one row-sized bitplane per
	// salt of the current batch.
	maskArena []uint64
	walkMasks [][]uint64
	walkFlips []int

	// Cold-build scratch, reused across buildCandidates calls: a row's
	// radix-sort keys and the sort's staging buffer (kernel.go). Never
	// published: only the slice a build returns goes to the cache,
	// which clones may share.
	buildKeys []keyedIndex
	buildBuf  []keyedIndex
}

type rowParams struct {
	hc   float64 // row base HCfirst at reference conditions
	tinf float64 // temperature inflection point (max vulnerability)
}

// NewModel builds the fault model for one module.
func NewModel(cfg Config) (*Model, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("faultmodel: nil profile")
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profile.TailAlpha <= 0 || cfg.Profile.VulnFrac <= 0 || cfg.Profile.VulnFrac > 1 {
		return nil, fmt.Errorf("faultmodel: profile %s has invalid tail parameters", cfg.Profile.Name)
	}
	m := &Model{
		p:         cfg.Profile,
		seed:      cfg.ModuleSeed,
		geo:       cfg.Geometry,
		rowCache:  make(map[uint64]rowParams),
		candCache: newCandLRU(candCacheBudgetBytes),
		replay:    newReplayCache(),
	}

	// Module-level base HCfirst: lognormal module-to-module variation.
	z := rng.NormalFromHash(
		rng.Hash64(m.seed, keyModule, 1),
		rng.Hash64(m.seed, keyModule, 2),
	)
	m.baseHC = cfg.Profile.BaseHC * math.Exp(cfg.Profile.ModuleSigma*z)

	// Per-column factors: design component shared across chips (and
	// modules of the same manufacturer); process component per
	// (module, chip).
	designKey := rng.Hash64(uint64(len(cfg.Profile.Name)), uint64(cfg.Profile.Name[0]), keyColDesign)
	arrayCols := m.geo.ChipRowBits()
	wp := cfg.Profile.ColProcessWeight
	m.colFactor = make([][]float64, m.geo.Chips)
	for chip := range m.colFactor {
		m.colFactor[chip] = make([]float64, arrayCols)
		for c := 0; c < arrayCols; c++ {
			zd := rng.NormalFromHash(
				rng.Hash64(designKey, uint64(c), 1),
				rng.Hash64(designKey, uint64(c), 2),
			)
			zp := rng.NormalFromHash(
				rng.Hash64(m.seed, keyColProc, uint64(chip), uint64(c), 1),
				rng.Hash64(m.seed, keyColProc, uint64(chip), uint64(c), 2),
			)
			zc := math.Sqrt(1-wp)*zd + math.Sqrt(wp)*zp
			f := math.Exp(cfg.Profile.ColSigma * zc)
			if f < minColFactor {
				f = minColFactor
			}
			m.colFactor[chip][c] = f
		}
	}

	// Cumulative temperature-cluster distribution.
	total := 0.0
	for _, c := range cfg.Profile.TempClusters {
		total += c.Prob
	}
	if total <= 0 {
		return nil, fmt.Errorf("faultmodel: profile %s has no temperature clusters", cfg.Profile.Name)
	}
	m.tempCum = make([]float64, len(cfg.Profile.TempClusters))
	run := 0.0
	for i, c := range cfg.Profile.TempClusters {
		run += c.Prob / total
		m.tempCum[i] = run
	}
	return m, nil
}

// Profile returns the manufacturer profile backing the model.
func (m *Model) Profile() *Profile { return m.p }

// ModuleBaseHC returns the module's most-vulnerable-row HCfirst at
// reference conditions.
func (m *Model) ModuleBaseHC() float64 { return m.baseHC }

// SetSalt sets the measurement-noise salt. Salt 0 disables noise; any
// other value yields an independent, deterministic noise realization
// (one per test repetition).
func (m *Model) SetSalt(salt uint64) { m.salt = salt }

// SetTrialSalts declares the full set of salts an enclosing repetition
// loop will run (e.g. 1..R for a min-of-R policy). When the current
// salt is a member, each kernel walk evaluates every declared salt at
// once and caches the per-salt flip bitplanes, so later trials over
// the same hammer program replay instead of re-walking. Nil or empty
// reverts to single-salt walks. Purely an evaluation-order hint:
// results are bit-identical either way.
func (m *Model) SetTrialSalts(salts []uint64) {
	m.batchSalts = append(m.batchSalts[:0], salts...)
}

// ShareKernelCache attaches this model to src's candidate-set cache.
// Candidate sets are pure functions of (profile, module seed,
// geometry), so sharing is only valid between models with identical
// identity — cloned measurement cores of one bench — and lets
// parallel cores stop rebuilding each other's rows. The sharded cache
// is safe for concurrent use; each model itself remains
// single-goroutine.
func (m *Model) ShareKernelCache(src *Model) error {
	if m.seed != src.seed || m.p.Name != src.p.Name || m.geo != src.geo {
		return fmt.Errorf("faultmodel: cannot share kernel cache across different module identities")
	}
	m.candCache = src.candCache
	return nil
}

// rowParamsFor returns (caching) the per-row parameters.
func (m *Model) rowParamsFor(bank, row int) rowParams {
	key := uint64(bank)<<32 | uint64(uint32(row))
	if rp, ok := m.rowCache[key]; ok {
		return rp
	}
	h := rng.Hash64(m.seed, keyRow, uint64(bank), uint64(row))
	u := rng.Uniform01(rng.Hash64(h, keyRowU))
	rp := rowParams{
		hc: m.baseHC * m.p.RowMultiplier(u),
		tinf: rng.UniformRange(rng.Hash64(h, keyRowInf),
			m.p.InflectionLoC, m.p.InflectionHiC),
	}
	m.rowCache[key] = rp
	return rp
}

// tempFactor returns the disturbance-effectiveness multiplier at
// temperature T for a row with inflection point tinf.
func (m *Model) tempFactor(tempC, tinf float64) float64 {
	trend := math.Exp(m.p.TempSlope * (tempC - refTempC))
	d := (tempC - tinf) / 40
	inflect := 1 - m.p.InflectionCurvature*d*d
	if inflect < 0.5 {
		inflect = 0.5
	}
	return trend * inflect
}

// onOffFactor converts average on/off times (ns) to a disturbance
// multiplier.
func (m *Model) onOffFactor(onNs, offNs float64) float64 {
	fOn := 1 + m.p.OnTimeGainPerNs*(onNs-refAggOnNs)
	if fOn < 0.2 {
		fOn = 0.2
	}
	fOff := 1 / (1 + m.p.OffTimeDecayPerNs*(offNs-refAggOffNs))
	if fOff < 0.05 {
		fOff = 0.05
	}
	if fOff > 1.5 {
		fOff = 1.5
	}
	return fOn * fOff
}

// EffectiveHammers aggregates a ledger into the model's effective
// hammer count at the recorded temperature. Exposed for tests and
// analytical defense evaluations.
func (m *Model) EffectiveHammers(led *dram.RowLedger, tinf float64) float64 {
	heff := 0.0
	weights := [dram.MaxDisturbDistance]float64{weightDist1, weightDist2}
	for di := range led.Dist {
		d := led.Dist[di]
		if d.Count == 0 {
			continue
		}
		heff += float64(d.Count) * weights[di] * m.onOffFactor(d.AvgOnNs(), d.AvgOffNs())
	}
	if heff == 0 {
		return 0
	}
	return heff * m.tempFactor(ledgerTempC(led), tinf)
}

// ledgerTempC selects the temperature a ledger's disturbance was
// recorded at: the nearest distance class that actually recorded
// activations, falling back to reference conditions for an empty
// ledger. Presence is decided by Count > 0 — an average of exactly
// 0 °C is a valid recorded temperature, not an "unset" sentinel.
func ledgerTempC(led *dram.RowLedger) float64 {
	for di := range led.Dist {
		if led.Dist[di].Count > 0 {
			return led.Dist[di].AvgTempC()
		}
	}
	return refTempC
}

// cellTempRange draws the vulnerable temperature range of a cell from
// the profile's cluster distribution. lo==50 / hi==90 are censored
// bounds: the true range extends beyond the tested window.
func (m *Model) cellTempRange(h uint64) (lo, hi float64) {
	u := rng.Uniform01(rng.Hash64x2(h, keyCellRange))
	for i, cum := range m.tempCum {
		if u <= cum {
			c := m.p.TempClusters[i]
			return c.LoC, c.HiC
		}
	}
	c := m.p.TempClusters[len(m.p.TempClusters)-1]
	return c.LoC, c.HiC
}

// tempInRange reports whether temperature T activates a cell with
// vulnerable range [lo, hi], honoring censoring at the tested limits
// and the cell's optional single-point gap.
func (m *Model) tempInRange(h uint64, tempC, lo, hi float64) bool {
	const margin = tempMargin
	if lo > 50 && tempC < lo-margin {
		return false
	}
	if hi < 90 && tempC > hi+margin {
		return false
	}
	// Gap cells: one interior 5 °C point of the range is skipped.
	if hi-lo >= 10 && m.p.GapProb > 0 {
		if rng.Uniform01(rng.Hash64(h, keyCellGapU)) < m.p.GapProb {
			interior := int(hi-lo)/5 - 1
			pick := int(rng.Uniform01(rng.Hash64(h, keyCellGapT)) * float64(interior))
			if pick >= interior {
				pick = interior - 1
			}
			gapT := lo + float64(5*(pick+1))
			if math.Abs(tempC-gapT) < margin {
				return false
			}
		}
	}
	return true
}

// disturbSetup computes the shared preamble of both disturb paths:
// row parameters, effective hammers, the early-out bound, and the
// gating temperature. ok is false when no cell can possibly flip.
func (m *Model) disturbSetup(ctx dram.DisturbContext) (rp rowParams, heff, tempC float64, ok bool) {
	rp = m.rowParamsFor(ctx.Bank, ctx.Row)
	heff = m.EffectiveHammers(ctx.Ledger, rp.tinf)
	if heff <= 0 {
		return rp, 0, 0, false
	}
	// Early out: no cell's threshold can be below
	// rowHC × minCellMult × minColFactor, and coupling only weakens
	// disturbance.
	if heff < rp.hc*minCellMult*minColFactor {
		return rp, 0, 0, false
	}
	return rp, heff, ledgerTempC(ctx.Ledger), true
}

// Disturb implements dram.Disturber via the memoized candidate-cell
// kernel (kernel.go): it returns the flip count and a bitplane mask
// for the module to XOR into the stored row. Repeated inputs replay a
// cached bitplane (replay.go); fresh inputs run one trial-batched walk
// over every salt declared via SetTrialSalts. The returned mask
// aliases model-owned scratch and is valid until the next call.
func (m *Model) Disturb(ctx dram.DisturbContext) (int, []uint64) {
	rp, heff, tempC, ok := m.disturbSetup(ctx)
	if !ok {
		return 0, nil
	}
	key := replayKey{bank: ctx.Bank, row: ctx.Row, led: *ctx.Ledger}
	if e := m.replay.get(key, ctx); e != nil {
		if si := saltIndex(e.salts, m.salt); si >= 0 {
			return e.flips[si], e.masks[si]
		}
	}
	salts := m.walkSalts()
	m.ensureWalkScratch(len(salts), len(ctx.Data))
	m.disturbBatch(ctx, rp, heff, tempC, salts, m.walkMasks, m.walkFlips)
	m.replay.put(key, ctx, salts, m.walkMasks, m.walkFlips)
	si := saltIndex(salts, m.salt)
	return m.walkFlips[si], m.walkMasks[si]
}

// DisturbBatch evaluates one trial-batched candidate walk directly,
// bypassing the replay cache: masks[i] (each len(ctx.Data), zeroed
// here) and flips[i] receive salt i's flip bitplane and count.
// len(masks) and len(flips) must equal len(salts). Exposed for the
// batch differential tests and benchmarks; production traffic goes
// through Disturb.
func (m *Model) DisturbBatch(ctx dram.DisturbContext, salts []uint64, masks [][]uint64, flips []int) {
	rp, heff, tempC, ok := m.disturbSetup(ctx)
	if !ok {
		for i := range masks {
			clearWords(masks[i])
			flips[i] = 0
		}
		return
	}
	m.disturbBatch(ctx, rp, heff, tempC, salts, masks, flips)
}

// walkSalts selects the salt set for one walk: the declared trial
// batch when the current salt belongs to it, else just the current
// salt.
func (m *Model) walkSalts() []uint64 {
	if saltIndex(m.batchSalts, m.salt) >= 0 {
		return m.batchSalts
	}
	m.soloSalt[0] = m.salt
	return m.soloSalt[:]
}

// ensureWalkScratch sizes the per-model walk scratch: nSalts bitplanes
// of words each, carved from one flat arena, reused call to call.
func (m *Model) ensureWalkScratch(nSalts, words int) {
	need := nSalts * words
	if cap(m.maskArena) < need {
		m.maskArena = make([]uint64, need)
	}
	m.maskArena = m.maskArena[:need]
	m.walkMasks = m.walkMasks[:0]
	for i := 0; i < nSalts; i++ {
		m.walkMasks = append(m.walkMasks, m.maskArena[i*words:(i+1)*words:(i+1)*words])
	}
	if cap(m.walkFlips) < nSalts {
		m.walkFlips = make([]int, nSalts)
	}
	m.walkFlips = m.walkFlips[:nSalts]
}

// ReferenceDisturb is the naive per-bit disturb path: it re-derives
// every cell parameter from the hash stream on every call and flips
// ctx.Data in place, bit by bit. It is the equivalence anchor for the
// candidate kernel and the bitplane mask application — Disturb's mask,
// XORed into a copy of the row, must produce bit-identical stored
// data (see the differential tests) — and is kept only for that
// purpose; all production callers go through Disturb.
func (m *Model) ReferenceDisturb(ctx dram.DisturbContext) int {
	rp, heff, tempC, ok := m.disturbSetup(ctx)
	if !ok {
		return 0
	}
	return m.disturbReference(ctx, rp, heff, tempC)
}

// disturbReference walks every bit of the row, deriving per-cell
// parameters inline with the variadic hash (the readable, obviously-
// correct form of the model).
func (m *Model) disturbReference(ctx dram.DisturbContext, rp rowParams, heff, tempC float64) int {
	up := ctx.Down
	down := ctx.Up
	geo := ctx.Geometry
	cw := geo.ChipWidth
	chips := geo.Chips

	flips := 0
	rowBits := geo.RowBits()
	for bit := 0; bit < rowBits; bit++ {
		h := rng.Hash64(m.seed, uint64(ctx.Bank), uint64(ctx.Row), uint64(bit))

		// Per-cell threshold multiplier: Pareto lower tail. A cell is
		// vulnerable with probability VulnFrac; among vulnerable cells
		// the multiplier is (rowBits·u)^(1/α), which anchors the
		// expected per-row minimum at ≈1 and makes the number of
		// cells below a threshold h grow as h^α.
		u := rng.Uniform01(rng.Hash64(h, keyCellMult1))
		if u > m.p.VulnFrac {
			continue
		}
		mult := math.Pow(float64(rowBits)*u, 1/m.p.TailAlpha)
		if mult < minCellMult {
			mult = minCellMult
		}

		// Column factor: array column within the chip. rel is the
		// cell's threshold relative to the row HCfirst; the candidate
		// kernel stores exactly this product, so the grouping must
		// stay rel-first to keep both paths bit-identical.
		line := bit % cw
		rest := bit / cw
		chip := rest % chips
		col := rest / chips
		arrayCol := col*cw + line
		rel := mult * m.colFactor[chip][arrayCol]
		threshold := rp.hc * rel

		if m.salt != 0 {
			threshold *= m.trialNoiseFactor(h)
		}
		if heff < threshold*minCoupling {
			continue
		}

		// Orientation: a cell flips only when storing its charged
		// state (true-cell: 1, anti-cell: 0).
		word, off := bit/64, uint(bit%64)
		stored := ctx.Data[word] >> off & 1
		charged := h & 1 // 1 ⇒ true-cell
		if stored != charged {
			continue
		}

		// Vulnerable temperature range.
		lo, hi := m.cellTempRange(h)
		if !m.tempInRange(h, tempC, lo, hi) {
			continue
		}

		// Data-pattern coupling with the adjacent aggressor rows: an
		// aggressor bit opposite to the victim's maximizes coupling.
		coupling := minCoupling
		if bitDiffers(up, word, off, stored) || bitDiffers(down, word, off, stored) {
			coupling = 1.0
		}
		if heff*coupling < threshold {
			continue
		}

		ctx.Data[word] ^= 1 << off
		flips++
	}
	return flips
}

// trialNoiseFactor returns the multiplicative per-trial threshold
// noise for a cell under the current salt: lognormal with sigma
// trialNoiseSigma, deviate truncated to ±trialNoiseZMax. Both disturb
// paths share it so the truncation semantics cannot drift apart.
func (m *Model) trialNoiseFactor(h uint64) float64 {
	return m.trialNoiseFactorFor(h, m.salt)
}

// trialNoiseFactorFor is trialNoiseFactor under an explicit salt; the
// trial-batched walk evaluates every declared salt in one pass.
func (m *Model) trialNoiseFactorFor(h, salt uint64) float64 {
	z := rng.NormalFromHash(
		rng.Hash64x3(h, keyNoise1, salt),
		rng.Hash64x3(h, keyNoise2, salt))
	if z > trialNoiseZMax {
		z = trialNoiseZMax
	} else if z < -trialNoiseZMax {
		z = -trialNoiseZMax
	}
	return math.Exp(trialNoiseSigma * z)
}

// minCoupling is the disturbance multiplier when both adjacent
// aggressor rows store the same value as the victim cell (minimum
// bitline/wordline coupling).
const minCoupling = 0.5

// bitDiffers reports whether the neighbor row's bit differs from the
// victim's stored bit; unallocated neighbors read as zero.
func bitDiffers(neighbor []uint64, word int, off uint, stored uint64) bool {
	var nb uint64
	if neighbor != nil {
		nb = neighbor[word] >> off & 1
	}
	return nb != stored
}

// CellInfo describes a cell's generated circuit-level parameters
// (diagnostic/experiment use: ground truth the measurement pipeline is
// expected to recover).
type CellInfo struct {
	ThresholdHC  float64
	TrueCell     bool
	TempLoC      float64
	TempHiC      float64
	ColumnFactor float64
}

// Cell returns the generated parameters of one cell. Invulnerable
// cells (outside the Pareto tail) report an infinite threshold.
func (m *Model) Cell(bank, row, bit int) CellInfo {
	rp := m.rowParamsFor(bank, row)
	h := rng.Hash64(m.seed, uint64(bank), uint64(row), uint64(bit))
	u := rng.Uniform01(rng.Hash64(h, keyCellMult1))
	mult := math.Inf(1)
	if u <= m.p.VulnFrac {
		mult = math.Pow(float64(m.geo.RowBits())*u, 1/m.p.TailAlpha)
		if mult < minCellMult {
			mult = minCellMult
		}
	}
	cw := m.geo.ChipWidth
	line := bit % cw
	rest := bit / cw
	chip := rest % m.geo.Chips
	col := rest / m.geo.Chips
	cf := m.colFactor[chip][col*cw+line]
	lo, hi := m.cellTempRange(h)
	return CellInfo{
		ThresholdHC:  rp.hc * (mult * cf),
		TrueCell:     h&1 == 1,
		TempLoC:      lo,
		TempHiC:      hi,
		ColumnFactor: cf,
	}
}

// RowBaseHC returns the generated base HCfirst of a physical row.
func (m *Model) RowBaseHC(bank, row int) float64 { return m.rowParamsFor(bank, row).hc }

// RowInflection returns the generated temperature inflection point of
// a physical row.
func (m *Model) RowInflection(bank, row int) float64 { return m.rowParamsFor(bank, row).tinf }
