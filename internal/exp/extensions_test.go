package exp

import (
	"testing"

	"rowhammer/internal/artifact"
)

func TestDDR3Observation2(t *testing.T) {
	a := run(t, "ddr3", tinyConfig())
	if len(a.Shards) != 3 {
		t.Fatalf("mfrs = %v", a.Shards)
	}
	for _, mfr := range a.Shards {
		r := row(t, a, mfrKey(mfr))
		if r.Int("vulnerable") == 0 {
			t.Fatalf("mfr %s DDR3: no vulnerable cells", mfr)
		}
		if r.V("full_range_frac") <= 0 {
			t.Errorf("mfr %s DDR3: no full-range cells (Obsv. 2 should hold on DDR3)", mfr)
		}
		if f := r.V("no_gap_frac"); f < 0.9 {
			t.Errorf("mfr %s DDR3: no-gap fraction %.2f", mfr, f)
		}
	}
}

func TestManySidedDefeatsTRR(t *testing.T) {
	a := run(t, "manysided", tinyConfig())
	double, many := row(t, a, "double"), row(t, a, "many")
	if n := double.Int("flips"); n != 0 {
		t.Errorf("TRR failed to stop the double-sided attack: %d flips", n)
	}
	if double.Int("trr_refreshes") == 0 {
		t.Error("TRR never fired against the double-sided attack")
	}
	if many.Int("flips") == 0 {
		t.Error("many-sided attack should defeat the 4-entry TRR sampler")
	}
}

func TestInterferenceChecklist(t *testing.T) {
	r := row(t, run(t, "interference", tinyConfig()), "checklist")
	if ms := float64(r.Int("duration_ps")) / 1e9; ms >= 64 {
		t.Errorf("hammer test %f ms exceeds the 64 ms methodology budget", ms)
	}
	if n := r.Int("retention_flips"); n != 0 {
		t.Errorf("retention interfered: %d flips", n)
	}
	if n := r.Int("trr_activity"); n != 0 {
		t.Errorf("TRR fired without REF: %d", n)
	}
	if raw, visible := r.Int("ecc_raw"), r.Int("ecc_visible"); visible >= raw {
		t.Errorf("on-die ECC should mask flips: %d raw vs %d visible", raw, visible)
	}
}

func TestDefCompareScorecard(t *testing.T) {
	a := run(t, "defcompare", tinyConfig())
	mechs := a.RowsWithPrefix("mech=")
	if len(mechs) != 5 {
		t.Fatalf("expected 5 mechanisms, got %d", len(mechs))
	}
	byName := map[string]artifact.Row{}
	for _, r := range mechs {
		byName[r.Label("name")] = r
		if n := r.Int("attack_flips"); n != 0 {
			t.Errorf("%s: attack succeeded with %d flips", r.Label("name"), n)
		}
	}
	// PARA pays benign bandwidth; deterministic trackers don't.
	if byName["PARA"].V("benign_refresh_rate") <= byName["Graphene"].V("benign_refresh_rate") {
		t.Error("PARA should out-refresh Graphene on benign traffic")
	}
	if byName["Graphene"].V("benign_refresh_rate") != 0 || byName["TWiCe"].V("benign_refresh_rate") != 0 {
		t.Error("deterministic trackers refreshed benign traffic")
	}
	// BlockHammer defends by throttling, not refreshing.
	if byName["BlockHammer"].V("throttle_ms") <= 0 {
		t.Error("BlockHammer never throttled the attack")
	}
	if byName["BlockHammer"].Int("attack_refreshes") != 0 {
		t.Error("BlockHammer should not refresh")
	}
	// RFM+SilverBullet refreshes via the on-die path.
	if byName["RFM+SilverBullet"].Int("attack_refreshes") == 0 {
		t.Error("RFM+SilverBullet never refreshed under attack")
	}
}

func TestWCDPSurvey(t *testing.T) {
	a := run(t, "wcdp", tinyConfig())
	for _, mfr := range a.Shards {
		if len(a.SeriesPoints(mfrKey(mfr)+"/patterns")) == 0 {
			t.Fatalf("mfr %s: no modules surveyed", mfr)
		}
		// Pattern choice must matter: the WCDP flips strictly more
		// than the weakest pattern (the coupling mechanism).
		if g := row(t, a, mfrKey(mfr)).V("gain"); g <= 1 {
			t.Errorf("mfr %s: WCDP gain %.2f, want > 1", mfr, g)
		}
	}
}
