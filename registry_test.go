package mobipriv

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/baseline/w4m"
	"mobipriv/internal/core"
	"mobipriv/internal/trace"
)

func TestFromSpecValid(t *testing.T) {
	cases := []struct {
		spec string
		name string // expected normalized Name
	}{
		{"raw", "raw"},
		{"promesse", "promesse"},
		{"promesse(epsilon=200)", "promesse(epsilon=200)"},
		{"promesse( epsilon = 200 )", "promesse(epsilon=200)"},
		{"promesse(200)", "promesse(200)"},
		{"pipeline", "pipeline"},
		{"pipeline(epsilon=150,zone-radius=50,seed=7)", "pipeline(epsilon=150,zone-radius=50,seed=7)"},
		{"pipeline(no-swap=true)", "pipeline(no-swap=true)"},
		{"pipeline(epsilon=0,no-smooth=true)", "pipeline(epsilon=0,no-smooth=true)"}, // no smoothing: epsilon unused
		{"pipeline(zone-radius=0,no-zones=true)", "pipeline(zone-radius=0,no-zones=true)"},
		{"geoi", "geoi"},
		{"geoi(0.01)", "geoi(0.01)"},
		{"geoi(epsilon=0.05,seed=3)", "geoi(epsilon=0.05,seed=3)"},
		{"w4m", "w4m"},
		{"w4m(k=4,delta=200)", "w4m(k=4,delta=200)"},
		{"w4m(4,200)", "w4m(4,200)"},
		{"  raw  ", "raw"},
		{"promesse()", "promesse"},
	}
	for _, c := range cases {
		m, err := FromSpec(c.spec)
		if err != nil {
			t.Errorf("FromSpec(%q): %v", c.spec, err)
			continue
		}
		if m.Name() != c.name {
			t.Errorf("FromSpec(%q).Name() = %q, want %q", c.spec, m.Name(), c.name)
		}
		// Name round-trips through FromSpec.
		if _, err := FromSpec(m.Name()); err != nil {
			t.Errorf("round-trip FromSpec(%q): %v", m.Name(), err)
		}
	}
}

func TestFromSpecInvalid(t *testing.T) {
	cases := []string{
		"",                          // empty
		"   ",                       // blank
		"nope",                      // unknown mechanism
		"quantum(entangle=9)",       // unknown mechanism with params
		"promesse(epsilon=abc)",     // bad float
		"promesse(spacing=100)",     // unknown parameter
		"w4m(k=four)",               // bad int
		"w4m(k=4,k=5)",              // duplicate key
		"geoi(0.01,0.02)",           // too many positionals
		"pipeline(epsilon=0)",       // non-positive smoothing spacing
		"pipeline(zone-window=wat)", // bad duration
		"promesse(epsilon=100",      // missing closing paren
		"pro messe",                 // invalid name
		"promesse(=5)",              // key-less parameter
		"geoi(epsilon=0.01,0.02)",   // positional after named

		// Invalid mix-zone stages are rejected at resolution time.
		"pipeline(zone-radius=0)",
		"pipeline(zone-window=0s)",
		"pipeline(zone-cooldown=-1)",
	}
	for _, spec := range cases {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("FromSpec(%q) accepted", spec)
		}
	}
}

func TestFromSpecUnknownMechanismError(t *testing.T) {
	_, err := FromSpec("nope")
	if !errors.Is(err, ErrUnknownMechanism) {
		t.Fatalf("error = %v, want ErrUnknownMechanism", err)
	}
	// The error should list what IS available.
	for _, name := range []string{"raw", "promesse", "pipeline", "geoi", "w4m"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestFromSpecUnknownMechanismSuggestion(t *testing.T) {
	// A near-miss gets a "did you mean" pointing at the real name.
	for spec, want := range map[string]string{
		"promese":           `did you mean "promesse"`,
		"Geoi(0.01)":        `did you mean "geoi"`,
		"pipelines(seed=3)": `did you mean "pipeline"`,
	} {
		_, err := FromSpec(spec)
		if !errors.Is(err, ErrUnknownMechanism) {
			t.Fatalf("FromSpec(%q) = %v, want ErrUnknownMechanism", spec, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("FromSpec(%q) error %q missing %q", spec, err, want)
		}
	}
	// A wild miss gets the plain listing, no bogus suggestion.
	_, err := FromSpec("zzzzzzzz")
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("error %q suggests a name for a wild miss", err)
	}
}

func TestFromSpecParameterDefaults(t *testing.T) {
	// promesse defaults to the paper's operating point: epsilon 100.
	d := commuterData(t, 6).Dataset
	def, err := MustFromSpec("promesse").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := MustFromSpec("promesse(epsilon=100)").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(def.Dataset, explicit.Dataset) {
		t.Error("promesse default epsilon is not 100")
	}
	// Seeds default to 1: geoi and geoi(seed=1) agree, geoi(seed=2) differs.
	g1, err := MustFromSpec("geoi(0.01)").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	g1b, err := MustFromSpec("geoi(epsilon=0.01,seed=1)").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := MustFromSpec("geoi(epsilon=0.01,seed=2)").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(g1.Dataset, g1b.Dataset) {
		t.Error("geoi default seed is not 1")
	}
	if datasetsEqual(g1.Dataset, g2.Dataset) {
		t.Error("geoi seed parameter has no effect")
	}
}

func TestMechanismsListsStandardLineup(t *testing.T) {
	names := Mechanisms()
	for _, want := range []string{"geoi", "pipeline", "promesse", "raw", "w4m"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Mechanisms() = %v, missing %q", names, want)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, f Factory) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(name, f)
	}
	dummy := func(p *Params) (Mechanism, error) { return Raw(), nil }
	mustPanic("", dummy)
	mustPanic("has space", dummy)
	mustPanic("paren(", dummy)
	mustPanic("raw", dummy) // duplicate
	mustPanic("nilfactory", nil)
}

var registerTestIdentity sync.Once

func TestRegisterCustomMechanism(t *testing.T) {
	// Registration is global and permanent; guard it so the test
	// survives go test -count=N.
	registerTestIdentity.Do(func() {
		Register("test-identity", func(p *Params) (Mechanism, error) {
			return NewMechanism("test-identity", func(ctx context.Context, d *Dataset) (*Result, error) {
				return &Result{Dataset: d}, nil
			}), nil
		})
	})
	d := commuterData(t, 3).Dataset
	m, err := FromSpec("test-identity")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != d {
		t.Error("custom identity mechanism did not pass the dataset through")
	}
}

func TestSplitSpecs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"raw", []string{"raw"}},
		{"raw,promesse", []string{"raw", "promesse"}},
		{"raw, w4m(k=4,delta=200), geoi(0.01)", []string{"raw", "w4m(k=4,delta=200)", "geoi(0.01)"}},
		{" , raw ,, ", []string{"raw"}},
		{"", nil},
	}
	for _, c := range cases {
		got := SplitSpecs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitSpecs(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitSpecs(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// TestLineupMatchesHandWired asserts that FromSpec of each standard
// lineup entry behaves exactly like a direct call into the underlying
// packages — i.e. the registry adds spec parsing and defaults without
// changing behavior. (For geoi, "direct" means PerturbDataset, whose
// per-trace RNG derivation this PR introduced for worker-count
// independence; the seed repo's shared-RNG serial stream is
// intentionally not preserved.)
func TestLineupMatchesHandWired(t *testing.T) {
	g := commuterData(t, 10)
	d := g.Dataset
	ctx := context.Background()

	handWired := map[string]func() (*trace.Dataset, error){
		"raw": func() (*trace.Dataset, error) { return d, nil },
		"promesse": func() (*trace.Dataset, error) {
			out, _, err := core.SmoothDataset(d, core.DefaultConfig())
			return out, err
		},
		"pipeline": func() (*trace.Dataset, error) {
			res, err := Pipeline(DefaultMixZoneSwap(), DefaultSpeedSmooth(), DefaultPseudonymize()).Apply(ctx, d)
			if err != nil {
				return nil, err
			}
			return res.Dataset, nil
		},
		"geoi(0.01)": func() (*trace.Dataset, error) {
			return geoind.PerturbDataset(d, geoind.Config{Epsilon: 0.01, Seed: 1})
		},
		"w4m(k=4,delta=200)": func() (*trace.Dataset, error) {
			res, err := w4m.Anonymize(d, w4m.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return res.Dataset, nil
		},
	}
	for spec, wire := range handWired {
		t.Run(spec, func(t *testing.T) {
			want, err := wire()
			if err != nil {
				t.Fatal(err)
			}
			m, err := FromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Apply(ctx, d)
			if err != nil {
				t.Fatal(err)
			}
			if !datasetsEqual(want, res.Dataset) {
				t.Errorf("FromSpec(%q) output differs from the hand-wired equivalent", spec)
			}
		})
	}
}

// datasetsEqual compares two datasets point by point.
func datasetsEqual(a, b *trace.Dataset) bool {
	if a.Len() != b.Len() {
		return false
	}
	ta, tb := a.Traces(), b.Traces()
	for i := range ta {
		if ta[i].User != tb[i].User || ta[i].Len() != tb[i].Len() {
			return false
		}
		for j := range ta[i].Points {
			pa, pb := ta[i].Points[j], tb[i].Points[j]
			if pa.Lat != pb.Lat || pa.Lng != pb.Lng || !pa.Time.Equal(pb.Time) {
				return false
			}
		}
	}
	return true
}

func TestParamsDuration(t *testing.T) {
	m, err := FromSpec("pipeline(zone-window=90s,zone-cooldown=600)")
	if err != nil {
		t.Fatal(err)
	}
	// A bare number is seconds: cooldown 600 = 10 minutes. Exercise it
	// end to end rather than poking internals.
	if _, err := m.Apply(context.Background(), commuterData(t, 4).Dataset); err != nil {
		t.Fatal(err)
	}
	if _, err := FromSpec("pipeline(zone-window=0s)"); err == nil {
		t.Error("zero zone-window accepted")
	}
}
