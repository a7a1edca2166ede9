// Command mobibench regenerates the evaluation tables (experiments
// E1..E15 of internal/experiment; docs/CLI.md lists them).
//
// Usage:
//
//	mobibench                 # run everything at full scale
//	mobibench -exp E2,E7      # selected experiments
//	mobibench -scale quick    # the reduced workloads used by tests
//
// The comparative experiments resolve their mechanism lineup from the
// mobipriv registry; override it with -mechanisms, e.g.
//
//	mobibench -exp E2 -mechanisms "raw,promesse(epsilon=200),geoi(0.05)"
//
// With -dataset the synthetic workloads are replaced by a real dataset
// (any traceio format or a native .mstore store); add -stays to supply
// ground truth for the POI-attack experiments. Under -exp all,
// experiments the dataset cannot drive (density sweeps; attacks
// without -stays) are skipped with a note:
//
//	mobibench -exp E2 -dataset beijing.mstore -stays stays.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mobipriv"
	"mobipriv/internal/cliutil"
	"mobipriv/internal/experiment"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobibench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobibench", flag.ContinueOnError)
	var (
		exps      = fs.String("exp", "all", "comma-separated experiment ids (e.g. E2,E7) or 'all'")
		scale     = fs.String("scale", "full", "workload scale: quick or full")
		dataset   = fs.String("dataset", "", "run experiments over this dataset (.csv/.jsonl/.plt[.gz] or .mstore) instead of the synthetic workloads")
		stays     = fs.String("stays", "", "ground-truth stays CSV for -dataset (mobigen format; enables the POI-attack experiments)")
		lineup    = fs.String("mechanisms", "", "comma-separated mechanism specs overriding the standard lineup (default: "+strings.Join(experiment.Lineup(), ",")+")")
		listMechs = fs.Bool("list-mechanisms", false, "print the registered mechanism names and exit")
		verbose   = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listMechs {
		for _, name := range mobipriv.Mechanisms() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *lineup != "" {
		if err := experiment.SetLineup(mobipriv.SplitSpecs(*lineup)); err != nil {
			return err
		}
	}
	if *stays != "" && *dataset == "" {
		return fmt.Errorf("-stays requires -dataset")
	}
	if *dataset != "" {
		d, err := store.ReadDataset(context.Background(), *dataset)
		if err != nil {
			return fmt.Errorf("dataset: %w", err)
		}
		g := &synth.Generated{Dataset: d}
		note := "no ground-truth stays: POI-attack experiments are skipped under -exp all"
		if *stays != "" {
			f, err := os.Open(*stays)
			if err != nil {
				return fmt.Errorf("open stays: %w", err)
			}
			g.Stays, err = synth.ReadStays(f)
			f.Close()
			if err != nil {
				return err
			}
			note = fmt.Sprintf("%d ground-truth stays", len(g.Stays))
		}
		experiment.SetWorkload(g)
		fmt.Fprintf(stdout, "running over %s: %s (%s)\n\n", *dataset, d, note)
	}
	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.Quick
	case "full":
		sc = experiment.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}

	var selected []experiment.Experiment
	if *exps == "all" {
		selected = experiment.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			e, err := experiment.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		if *verbose {
			fmt.Fprintf(os.Stderr, "mobibench: running %s (%s) at %s scale\n", e.ID, e.Title, sc)
		}
		start := time.Now()
		table, err := e.Run(sc)
		if err != nil {
			// Under -exp all, a dataset override skips the experiments
			// the dataset cannot honestly drive — density sweeps
			// (ErrWorkloadOverride) and, without -stays, anything that
			// needs ground truth — instead of aborting the remaining
			// tables; an explicitly requested experiment fails loudly.
			if *dataset != "" && *exps == "all" {
				fmt.Fprintf(stdout, "(%s skipped: %v)\n\n", e.ID, err)
				continue
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := table.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s at %s scale in %s)\n\n", e.ID, sc, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
