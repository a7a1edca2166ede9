package main

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/mobieval -run TestGoldenReport -args -update
var update = flag.Bool("update", false, "rewrite golden files")

// fixture writes raw.csv, anon.csv and stays.csv into a temp dir. Both
// datasets are quantized to store resolution (1e-7 degrees, microsecond
// times) so that a .mstore round trip of the CSVs is lossless and the
// batch and store-native paths evaluate bit-identical data.
func fixture(t *testing.T) (raw, anon, stays string) {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 4
	cfg.Sampling = 3 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mobipriv.MustFromSpec("pipeline").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	quantize(g.Dataset)
	quantize(res.Dataset)
	dir := t.TempDir()
	raw = filepath.Join(dir, "raw.csv")
	anon = filepath.Join(dir, "anon.csv")
	stays = filepath.Join(dir, "stays.csv")

	writeCSV := func(path string, write func(f *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := write(f); err != nil {
			t.Fatal(err)
		}
	}
	writeCSV(raw, func(f *os.File) error { return traceio.WriteCSV(f, g.Dataset) })
	writeCSV(anon, func(f *os.File) error { return traceio.WriteCSV(f, res.Dataset) })
	writeCSV(stays, func(f *os.File) error {
		var b strings.Builder
		b.WriteString("user,lat,lng,enter,leave\n")
		for _, s := range g.Stays {
			b.WriteString(s.User + "," +
				formatFloat(s.Center.Lat) + "," + formatFloat(s.Center.Lng) + "," +
				s.Enter.UTC().Format(time.RFC3339) + "," + s.Leave.UTC().Format(time.RFC3339) + "\n")
		}
		_, err := f.WriteString(b.String())
		return err
	})
	return raw, anon, stays
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// quantize snaps every point to store resolution in place.
func quantize(d *trace.Dataset) {
	for _, tr := range d.Traces() {
		for i := range tr.Points {
			p := &tr.Points[i]
			p.Lat = math.Round(p.Lat*store.CoordScale) / store.CoordScale
			p.Lng = math.Round(p.Lng*store.CoordScale) / store.CoordScale
			p.Time = time.UnixMicro(p.Time.UnixMicro()).UTC()
		}
	}
}

func TestRunFullReport(t *testing.T) {
	raw, anon, stays := fixture(t)
	var out bytes.Buffer
	if err := run([]string{"-orig", raw, "-anon", anon, "-stays", stays}, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"coverage @500m", "trip lengths", "OD flows", "range queries", "POI retrieval attack",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Pipeline output has pseudonyms: distortion must degrade gracefully.
	if !strings.Contains(report, "spatial distortion") {
		t.Error("distortion section missing entirely")
	}
}

func TestRunWithoutStays(t *testing.T) {
	raw, anon, _ := fixture(t)
	var out bytes.Buffer
	if err := run([]string{"-orig", raw, "-anon", anon}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "POI retrieval attack") {
		t.Error("attack section should require -stays")
	}
}

// TestRunStoreInputs evaluates with both datasets supplied as native
// stores instead of CSV.
func TestRunStoreInputs(t *testing.T) {
	raw, anon, _ := fixture(t)
	dir := t.TempDir()
	toStore := func(csvPath, name string) string {
		f, err := os.Open(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := traceio.ReadCSV(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := store.WriteDataset(path, d, store.Options{Shards: 2}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rawStore := toStore(raw, "raw.mstore")
	anonStore := toStore(anon, "anon.mstore")
	var out bytes.Buffer
	if err := run([]string{"-orig", rawStore, "-anon", anonStore}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "coverage") {
		t.Fatalf("missing metrics output:\n%s", out.String())
	}
}

// TestGoldenReport pins the full text report over a small committed
// dataset, so any metric regression — a changed accumulator, a changed
// query derivation, a changed format — shows up as a readable diff.
// Regenerate deliberately with -update.
func TestGoldenReport(t *testing.T) {
	golden := filepath.Join("testdata", "eval_golden.txt")
	var out bytes.Buffer
	err := run([]string{
		"-orig", filepath.Join("testdata", "orig.csv"),
		"-anon", filepath.Join("testdata", "anon.csv"),
		"-queries", "32",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -args -update to create it)", err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Errorf("report drifted from golden:\n--- want\n%s\n--- got\n%s", want, out.Bytes())
	}
}

// TestGoldenReportStoreNative pins that the store-native path emits the
// byte-identical report for the same data (the golden body), plus its
// stats trailer, without ever loading a dataset.
func TestGoldenReportStoreNative(t *testing.T) {
	dir := t.TempDir()
	toStore := func(name string) string {
		f, err := os.Open(filepath.Join("testdata", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := traceio.ReadCSV(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".mstore")
		if err := store.WriteDataset(path, d, store.Options{Shards: 3, BlockPoints: 8}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	// -verbose: the stats trailer this test pins is verbose-only output.
	if err := run([]string{"-orig", toStore("orig"), "-anon", toStore("anon"), "-queries", "32", "-verbose"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "eval_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	report, trailer, found := strings.Cut(out.String(), "\n\nstore-native eval: ")
	if !found {
		t.Fatalf("store-native stats trailer missing:\n%s", out.String())
	}
	if report+"\n" != string(want) {
		t.Errorf("store-native report differs from golden:\n--- want\n%s\n--- got\n%s", want, report)
	}
	if !strings.Contains(trailer, "traces paired") {
		t.Errorf("trailer = %q", trailer)
	}
}

// TestRunFiltered pins that the -users/-from filters restrict both
// paths to the same slice: the filtered batch report equals the
// filtered store-native report body.
func TestRunFiltered(t *testing.T) {
	args := func(orig, anon string) []string {
		return []string{
			"-orig", orig, "-anon", anon,
			"-queries", "16", "-users", "g01,g02", "-from", "1735725900",
		}
	}
	var batch bytes.Buffer
	if err := run(args(filepath.Join("testdata", "orig.csv"), filepath.Join("testdata", "anon.csv")), &batch); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(batch.String(), "original:   2 traces") {
		t.Fatalf("user filter not applied:\n%s", batch.String())
	}

	dir := t.TempDir()
	toStore := func(name string) string {
		f, err := os.Open(filepath.Join("testdata", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := traceio.ReadCSV(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".mstore")
		if err := store.WriteDataset(path, d, store.Options{Shards: 2, BlockPoints: 4}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var native bytes.Buffer
	// -verbose so the trailer exists for Cut to strip below.
	if err := run(append(args(toStore("orig"), toStore("anon")), "-verbose"), &native); err != nil {
		t.Fatal(err)
	}
	body, _, _ := strings.Cut(native.String(), "\n\nstore-native eval: ")
	if body+"\n" != batch.String() {
		t.Errorf("filtered store-native report differs from filtered batch report:\n--- batch\n%s\n--- native\n%s", batch.String(), body)
	}
}

// TestStoreNativeStaysMatchesBatch pins that -stays now works on the
// store-native path and scores the attack identically to the batch
// path on the same data: the attack section of both reports must be
// byte-for-byte equal.
func TestStoreNativeStaysMatchesBatch(t *testing.T) {
	raw, anon, stays := fixture(t)
	var batch bytes.Buffer
	if err := run([]string{"-orig", raw, "-anon", anon, "-stays", stays}, &batch); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	toStore := func(csvPath, name string) string {
		f, err := os.Open(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := traceio.ReadCSV(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := store.WriteDataset(path, d, store.Options{Shards: 3, BlockPoints: 16}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var native bytes.Buffer
	err := run([]string{
		"-orig", toStore(raw, "raw.mstore"), "-anon", toStore(anon, "anon.mstore"),
		"-stays", stays,
	}, &native)
	if err != nil {
		t.Fatal(err)
	}

	cutAttack := func(s string) string {
		_, atk, ok := strings.Cut(s, "\nPOI retrieval attack:\n")
		if !ok {
			t.Fatalf("attack section missing:\n%s", s)
		}
		// The store-native report appends its stats trailer after the
		// attack section.
		atk, _, _ = strings.Cut(atk, "\n\nstore-native eval: ")
		return strings.TrimRight(atk, "\n")
	}
	if got, want := cutAttack(native.String()), cutAttack(batch.String()); got != want {
		t.Errorf("store-native attack scores differ from batch:\n--- batch\n%s\n--- native\n%s", want, got)
	}
}

func TestRunErrors(t *testing.T) {
	raw, anon, _ := fixture(t)
	cases := [][]string{
		{},
		{"-orig", raw},
		{"-orig", raw, "-anon", "/nonexistent.csv"},
		{"-orig", raw, "-anon", anon, "-stays", "/nonexistent.csv"},
		{"-orig", raw, "-anon", anon, "-cell", "-5"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestReadStaysBadRows(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"bad fields": "user,lat\n",
		"bad lat":    "u,xx,4,2015-06-30T08:00:00Z,2015-06-30T09:00:00Z\n",
		"bad enter":  "u,45,4,notatime,2015-06-30T09:00:00Z\n",
		"bad leave":  "u,45,4,2015-06-30T08:00:00Z,notatime\n",
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".csv")
			if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readStays(p); err == nil {
				t.Errorf("content %q accepted", content)
			}
		})
	}
}
