package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
)

// wcdpMfr surveys one manufacturer's modules for their worst-case
// Table 1 data pattern — the §4.2 methodology step the
// characterization experiments rely on. It returns each module's
// winning pattern and the flips under the WCDP over flips under the
// weakest pattern (add-one smoothed: sparse modules can have
// zero-flip weakest patterns).
func wcdpMfr(cfg Config, mfr string) ([]rh.PatternKind, float64, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, 0, err
	}
	victims := sampleRows(cfg, 6)
	var pats []rh.PatternKind
	bestSum, worstSum := 0, 0
	for _, b := range bs {
		t := rh.NewTester(b)
		s, err := t.SurveyPatterns(cfg.Ctx, 0, victims, cfg.Scale.Hammers)
		if err != nil {
			return nil, 0, err
		}
		pats = append(pats, s.Best)
		bestSum += s.BestFlips
		worstSum += s.WorstFlips
	}
	return pats, float64(bestSum+1) / float64(worstSum+1), nil
}

// wcdpShard surveys one manufacturer's worst-case patterns.
func wcdpShard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	pats, gain, err := wcdpMfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).Set("gain", gain)
	pts := make([]float64, len(pats))
	for i, p := range pats {
		pts[i] = float64(p)
	}
	a.AddSeries(mfrKey(mfr)+"/patterns", pts)
	return a, nil
}

// renderWCDP prints the pattern survey from the artifact.
func renderWCDP(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tper-module WCDP\tbest/worst pattern flip ratio")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: wcdp artifact missing shard %s", mfr)
		}
		names := ""
		for mi, v := range a.SeriesPoints(mfrKey(mfr) + "/patterns") {
			if mi > 0 {
				names += ", "
			}
			names += rh.PatternKind(int(v)).String()
		}
		fmt.Fprintf(w, "%s\t%s\t%.1fx\n", mfr, names, r.V("gain"))
	}
	return w.Flush()
}
