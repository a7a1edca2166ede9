package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Coarse exposition buckets: the 1025 fine bins would bloat every
// scrape, so WritePrometheus rolls them up to power-of-two nanosecond
// upper bounds. Each le = 2^k ns aligns exactly with a fine-bin
// boundary (values of bit length ≤ k occupy bins 1..16k), so the
// rollup is a pure summation — no re-binning error. histExpoBuckets
// lists the exponents k; the spans run ~1µs .. ~17s, which brackets
// any plausible request latency.
var histExpoBuckets = []int{10, 13, 16, 19, 22, 25, 28, 31, 34}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name,
// series within a family sorted by label signature, each family
// preceded by its # HELP and # TYPE lines. Callback metrics are
// evaluated during the write while the registry lock is held.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		fam := r.families[name]
		bw.WriteString("# HELP ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(fam.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(fam.kind.String())
		bw.WriteByte('\n')

		sigs := make([]string, 0, len(fam.series))
		for sig := range fam.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := fam.series[sig]
			switch {
			case s.hist != nil:
				writeHistogram(bw, fam.name, s)
			case s.fn != nil:
				writeSample(bw, fam.name, s.sig, formatFloat(s.fn()))
			case s.counter != nil:
				writeSample(bw, fam.name, s.sig, strconv.FormatUint(s.counter.Value(), 10))
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one `name{labels} value` line.
func writeSample(bw *bufio.Writer, name, sig, value string) {
	bw.WriteString(name)
	if sig != "" {
		bw.WriteByte('{')
		bw.WriteString(sig)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and
// _count for one histogram series.
func writeHistogram(bw *bufio.Writer, name string, s *series) {
	h := s.hist
	// Snapshot bins once so the emitted cumulative counts are
	// consistent even while observations continue concurrently.
	var bins [histBins]uint64
	for i := range h.bins {
		bins[i] = h.bins[i].Load()
	}
	var cum, total uint64
	for _, n := range bins {
		total += n
	}
	next := 0
	for _, k := range histExpoBuckets {
		// Values with bit length ≤ k occupy bins [1, 16k]; bin 0 is zero.
		hi := k*histSubBins + 1 // exclusive upper bin index
		for ; next < hi && next < histBins; next++ {
			cum += bins[next]
		}
		le := formatFloat(ldexpSeconds(k))
		writeSample(bw, name+"_bucket", withLE(s.sig, le), strconv.FormatUint(cum, 10))
	}
	writeSample(bw, name+"_bucket", withLE(s.sig, "+Inf"), strconv.FormatUint(total, 10))
	writeSample(bw, name+"_sum", s.sig, formatFloat(h.Sum()))
	writeSample(bw, name+"_count", s.sig, strconv.FormatUint(total, 10))
}

// ldexpSeconds returns 2^k nanoseconds expressed in seconds.
func ldexpSeconds(k int) float64 {
	v := 1e-9
	for i := 0; i < k; i++ {
		v *= 2
	}
	return v
}

// withLE appends the le label to an existing signature.
func withLE(sig, le string) string {
	if sig == "" {
		return `le="` + le + `"`
	}
	return sig + `,le="` + le + `"`
}

// formatFloat renders a float sample value in the shortest exact form.
func formatFloat(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 1.7976931348623157e308:
		return "+Inf"
	case v < -1.7976931348623157e308:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, quotes and newlines in a label
// value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
