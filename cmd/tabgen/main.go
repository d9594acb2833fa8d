// Command tabgen regenerates the paper's tables and figures from the
// repository's substrates.
//
// Usage:
//
//	tabgen                  # everything
//	tabgen -table 2         # one table (1..8)
//	tabgen -figure 4        # one figure (1..4)
//	tabgen -extra power     # extension experiment: fill | power | ... | codecopt
//	tabgen -scale 10        # shrink the heavy workloads (Table VIII, fill)
//	tabgen -metrics -       # per-table wall time and verify spans on exit
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1..8); 0 = all")
	figure := flag.Int("figure", 0, "regenerate one figure (1..4); 0 = all")
	extra := flag.String("extra", "", "extension experiment: fill | power | ablation")
	scale := flag.Int("scale", 1, "volume divisor for the heavy workloads (>= 1)")
	var telemetry obs.CLIConfig
	telemetry.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := telemetry.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabgen:", err)
		os.Exit(1)
	}
	err = run(*table, *figure, *extra, *scale)
	if serr := stop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabgen:", err)
		os.Exit(1)
	}
}

func run(table, figure int, extra string, scale int) error {
	type gen func() (*experiments.Table, error)
	tables := map[int]gen{
		1: experiments.Table1,
		2: experiments.Table2,
		3: experiments.Table3,
		4: experiments.Table4,
		5: experiments.Table5,
		6: experiments.Table6,
		7: experiments.Table7,
		8: func() (*experiments.Table, error) { return experiments.Table8(scale) },
	}
	figures := map[int]gen{
		1: experiments.Figure1,
		2: experiments.Figure2,
		3: experiments.Figure3,
		4: experiments.Figure4,
	}
	extras := map[string]gen{
		"fill":     func() (*experiments.Table, error) { return experiments.ExtraFill(scale) },
		"power":    experiments.ExtraPower,
		"ablation": experiments.ExtraAblation,
		"bist":     func() (*experiments.Table, error) { return experiments.ExtraBIST(scale) },
		"reseed":   experiments.ExtraReseed,
		"reorder":  func() (*experiments.Table, error) { return experiments.ExtraReorder(scale) },
		"cost":     experiments.ExtraCost,
		"soc":      experiments.ExtraSoC,
		"codecopt": experiments.ExtraCodecopt,
	}

	selected := table != 0 || figure != 0 || extra != ""
	emit := func(g gen) error {
		t, err := experiments.Timed(g)
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		return nil
	}

	if table != 0 {
		g, ok := tables[table]
		if !ok {
			return fmt.Errorf("no table %d", table)
		}
		return emit(g)
	}
	if figure != 0 {
		g, ok := figures[figure]
		if !ok {
			return fmt.Errorf("no figure %d", figure)
		}
		return emit(g)
	}
	if extra != "" {
		g, ok := extras[extra]
		if !ok {
			return fmt.Errorf("no extra experiment %q (fill | power | ablation | bist | reseed | reorder | cost | soc | codecopt)", extra)
		}
		return emit(g)
	}
	if !selected {
		for i := 1; i <= 8; i++ {
			if err := emit(tables[i]); err != nil {
				return err
			}
		}
		if err := emit(func() (*experiments.Table, error) { return experiments.Table4Extended() }); err != nil {
			return err
		}
		for i := 1; i <= 4; i++ {
			if err := emit(figures[i]); err != nil {
				return err
			}
		}
		for _, name := range []string{"fill", "power", "ablation", "bist", "reseed", "reorder", "cost", "soc", "codecopt"} {
			if err := emit(extras[name]); err != nil {
				return err
			}
		}
	}
	return nil
}
