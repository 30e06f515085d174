// Command bench regenerates the paper's evaluation tables and figures
// (Section 11). Run with no arguments for everything, or name experiments:
//
//	bench [-sf 0.05] [-quick] fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 fig21
//
// -sf scales the PDBench figures (11-13); -quick shrinks every workload for
// a fast smoke run. The defaults finish in a few minutes on one core.
// Output is the textual form of each figure's data series.
//
// Performance of the system itself is measured by the repo benchmark
// (BENCHMARK.json, run with `bash benchmark/run.sh`), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// figures names the experiments bench can regenerate.
var figures = []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig18", "fig19", "fig20", "fig21"}

func main() {
	sf := flag.Float64("sf", 0.05, "PDBench scale factor for fig11-13 (1.0 = 60k lineitems)")
	quick := flag.Bool("quick", false, "shrink all workloads for a fast smoke run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	want := map[string]bool{}
	for _, a := range flag.Args() {
		id := strings.ToLower(a)
		if !slices.Contains(figures, id) {
			fail(fmt.Errorf("unknown experiment %q (want one of %s)", a, strings.Join(figures, " ")))
		}
		want[id] = true
	}
	all := len(want) == 0
	run := func(id string) bool { return all || want[id] }

	if run("fig10") {
		cfg := experiments.DefaultFig10()
		if *quick {
			cfg.Rows, cfg.MaxOps, cfg.QueriesPerOp = 20, 5, 3
		}
		rep, _ := experiments.Fig10(cfg)
		fmt.Println(rep)
	}

	var pdRows []experiments.PDBenchRow
	if run("fig11") || run("fig12") || run("fig13") {
		cfg := experiments.DefaultPDBench()
		cfg.SF = *sf
		if *quick {
			cfg.SF = 0.01
			cfg.Uncertainties = []float64{0.02, 0.30}
		}
		rep, rows, err := experiments.Fig11(cfg)
		if err != nil {
			fail(err)
		}
		pdRows = rows
		if run("fig11") {
			fmt.Println(rep)
		}
	}
	if run("fig12") {
		fmt.Println(experiments.Fig12(pdRows))
	}
	if run("fig13") {
		fmt.Println(experiments.Fig13(pdRows))
	}

	if run("fig14") {
		cfg := experiments.DefaultPDBench()
		sfs := []float64{0.01, 0.05, 0.2}
		if *quick {
			sfs = []float64{0.01, 0.02}
		}
		rep, _, err := experiments.Fig14(sfs, cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig15") {
		cfg := experiments.DefaultFig15()
		if *quick {
			cfg.TrialsPerK, cfg.Points = 3, 4
		}
		fmt.Println(experiments.Fig15(cfg))
	}

	if run("fig16") {
		fmt.Println(experiments.Fig16())
	}

	if run("fig17") {
		rows := 3000
		if *quick {
			rows = 500
		}
		rep, _, err := experiments.Fig17(rows, 0.05, 9)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig18") {
		cfg := experiments.DefaultFig18()
		if *quick {
			cfg.Rows = 400
			cfg.Uncertainties = []float64{0, 0.3, 0.5}
		}
		rep, _, err := experiments.Fig18(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig19") {
		cfg := experiments.DefaultFig19()
		if *quick {
			cfg.Rows = 200
			cfg.Alternatives = []int{2, 10}
		}
		rep, _, err := experiments.Fig19(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
	}

	if run("fig20") {
		trials := 5
		if *quick {
			trials = 2
		}
		fmt.Println(experiments.Fig20(trials, 3))
	}

	if run("fig21") {
		trials := 5
		if *quick {
			trials = 2
		}
		fmt.Println(experiments.Fig21(trials, 3))
	}
}
