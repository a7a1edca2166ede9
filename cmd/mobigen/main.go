// Command mobigen generates synthetic mobility datasets with ground
// truth, standing in for the real-life datasets of the paper's planned
// evaluation (the workload models live in internal/synth).
//
// Usage:
//
//	mobigen -model commuter -users 50 -seed 1 -out data.csv -stays stays.csv
//	mobigen -model taxi -format geojson -out fleet.geojson
//	mobigen -model rw -users 100000 -format store -out big.mstore
//
// Formats: csv (default), jsonl, geojson (write-only visualization),
// store (the native sharded on-disk format of internal/store — no text
// round-trip on the way to the batch tools).
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"mobipriv/internal/cliutil"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobigen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobigen", flag.ContinueOnError)
	var (
		model    = fs.String("model", "commuter", "workload model: commuter, taxi, rw")
		users    = fs.Int("users", 0, "number of users/vehicles (0 = model default)")
		seed     = fs.Int64("seed", 1, "generator seed")
		days     = fs.Int("days", 0, "days to simulate (commuter model, 0 = default)")
		sampling = fs.Duration("sampling", 0, "GPS sampling interval (0 = model default)")
		out      = fs.String("out", "", "output file (default stdout; a directory for -format store)")
		format   = fs.String("format", "csv", "output format: csv, jsonl, geojson, store")
		shards   = fs.Int("shards", 8, "segment count for -format store")
		staysOut = fs.String("stays", "", "also write ground-truth stays (CSV) to this file")
		verbose  = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *users < 0 || *days < 0 || *sampling < 0 {
		return fmt.Errorf("users, days and sampling must be non-negative")
	}

	g, err := generate(*model, *users, *seed, *days, *sampling)
	if err != nil {
		return err
	}

	if *format == "store" {
		// The store format writes a sharded directory, not a stream: a
		// synthetic million-user dataset lands in the native format the
		// batch tools scan, with no text round-trip.
		if *out == "" {
			return fmt.Errorf("-format store requires -out (a directory, conventionally .mstore)")
		}
		if err := store.WriteDataset(*out, g.Dataset, store.Options{Shards: *shards, Overwrite: true}); err != nil {
			return err
		}
	} else {
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fmt.Errorf("create output: %w", err)
			}
			defer f.Close()
			w = f
		}
		if err := writeDataset(w, g.Dataset, *format); err != nil {
			return err
		}
	}
	if *staysOut != "" {
		f, err := os.Create(*staysOut)
		if err != nil {
			return fmt.Errorf("create stays output: %w", err)
		}
		defer f.Close()
		if err := writeStays(f, g.Stays); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "generated %d users, %d points, %d ground-truth stays\n",
		g.Dataset.Len(), g.Dataset.TotalPoints(), len(g.Stays))
	if *verbose {
		if from, to, ok := g.Dataset.TimeSpan(); ok {
			fmt.Fprintf(os.Stderr, "span %s .. %s, bbox %s\n",
				from.Format(time.RFC3339), to.Format(time.RFC3339), g.Dataset.Bounds())
		}
	}
	return nil
}

func generate(model string, users int, seed int64, days int, sampling time.Duration) (*synth.Generated, error) {
	switch model {
	case "commuter":
		cfg := synth.DefaultCommuterConfig()
		cfg.Seed = seed
		if users > 0 {
			cfg.Users = users
		}
		if days > 0 {
			cfg.Days = days
		}
		if sampling > 0 {
			cfg.Sampling = sampling
		}
		return synth.Commuters(cfg)
	case "taxi":
		cfg := synth.DefaultTaxiConfig()
		cfg.Seed = seed
		if users > 0 {
			cfg.Vehicles = users
		}
		if sampling > 0 {
			cfg.Sampling = sampling
		}
		return synth.TaxiFleet(cfg)
	case "rw":
		cfg := synth.DefaultRandomWaypointConfig()
		cfg.Seed = seed
		if users > 0 {
			cfg.Users = users
		}
		if sampling > 0 {
			cfg.Sampling = sampling
		}
		return synth.RandomWaypoint(cfg)
	default:
		return nil, fmt.Errorf("unknown model %q (want commuter, taxi or rw)", model)
	}
}

func writeDataset(w io.Writer, d *trace.Dataset, format string) error {
	switch format {
	case "csv":
		return traceio.WriteCSV(w, d)
	case "jsonl":
		return traceio.WriteJSONL(w, d)
	case "geojson":
		return traceio.WriteGeoJSON(w, d)
	default:
		return fmt.Errorf("unknown format %q (want csv, jsonl, geojson or store)", format)
	}
}

func writeStays(w io.Writer, stays []synth.Stay) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "lat", "lng", "enter", "leave"}); err != nil {
		return err
	}
	for _, s := range stays {
		rec := []string{
			s.User,
			strconv.FormatFloat(s.Center.Lat, 'f', -1, 64),
			strconv.FormatFloat(s.Center.Lng, 'f', -1, 64),
			s.Enter.UTC().Format(time.RFC3339),
			s.Leave.UTC().Format(time.RFC3339),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
