package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
)

// table2Shard builds the tested-module inventory artifact (Tables 2
// and 4) from the manufacturer profiles (single shard: the inventory
// is pure metadata, no measurement to decompose).
func table2Shard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	a := artifact.New(shard)
	var ddr4Chips, ddr4Modules, ddr3Chips, ddr3Modules int
	i := 0
	for _, p := range rh.Profiles() {
		for _, m := range p.Modules {
			a.AddRow(fmt.Sprintf("row=%02d", i)).
				Tag("mfr", p.Name).Tag("type", m.Type).Tag("chip", m.ChipID).
				Tag("module", m.ModuleID).Tag("date", m.DateCode).Tag("density", m.Density).
				Tag("die", m.DieRev).Tag("org", m.Org).
				SetInt("freq_mts", int64(m.FreqMTs)).SetInt("modules", int64(m.NumModules)).SetInt("chips", int64(m.NumChips))
			i++
			switch m.Type {
			case "DDR4":
				ddr4Chips += m.NumChips
				ddr4Modules += m.NumModules
			case "DDR3":
				ddr3Chips += m.NumChips
				ddr3Modules += m.NumModules
			}
		}
	}
	a.AddRow("totals").
		SetInt("ddr4_chips", int64(ddr4Chips)).SetInt("ddr4_modules", int64(ddr4Modules)).
		SetInt("ddr3_chips", int64(ddr3Chips)).SetInt("ddr3_modules", int64(ddr3Modules))
	return a, nil
}

// renderTable2 prints Tables 2/4 from the artifact.
func renderTable2(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tType\tChip\tModule\tMT/s\tDate\tDensity\tDie\tOrg\t#Mod\t#Chips")
	for _, r := range a.RowsWithPrefix("row=") {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
			r.Label("mfr"), r.Label("type"), r.Label("chip"), r.Label("module"),
			r.Int("freq_mts"), r.Label("date"), r.Label("density"), r.Label("die"),
			r.Label("org"), r.Int("modules"), r.Int("chips"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	t := a.Row("totals")
	if t == nil {
		return fmt.Errorf("exp: table2 artifact missing totals row")
	}
	fmt.Fprintf(out, "Total: %d DDR4 chips (%d modules), %d DDR3 chips (%d modules)\n",
		t.Int("ddr4_chips"), t.Int("ddr4_modules"), t.Int("ddr3_chips"), t.Int("ddr3_modules"))
	return nil
}
