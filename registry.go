package mobipriv

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrUnknownMechanism reports a spec whose mechanism name has not been
// registered.
var ErrUnknownMechanism = errors.New("mobipriv: unknown mechanism")

// Factory builds a mechanism from parsed spec parameters. A factory
// reads its parameters with the typed Params accessors and constructs
// the mechanism; FromSpec surfaces conversion errors and leftover
// (unknown) parameters after the factory returns, so factories do not
// need to check Params.Err themselves.
type Factory func(p *Params) (Mechanism, error)

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register adds a mechanism factory under the given name, making it
// resolvable by FromSpec everywhere (CLIs, experiments, benchmarks).
// It panics if the name is empty, malformed, or already taken —
// registration conflicts are programmer errors.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("mobipriv: Register with empty name or nil factory")
	}
	if !validSpecName(name) {
		panic(fmt.Sprintf("mobipriv: Register %q: name must be letters, digits, '-' or '_'", name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("mobipriv: Register %q: already registered", name))
	}
	registry.factories[name] = f
}

// Mechanisms returns the sorted names of all registered mechanisms.
func Mechanisms() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// registeredWith returns the sorted names of registered mechanisms whose
// default spec passes the capability probe.
func registeredWith[T any](probe func(Mechanism) (T, bool)) []string {
	var out []string
	for _, name := range Mechanisms() {
		if m, err := FromSpec(name); err == nil {
			if _, ok := probe(m); ok {
				out = append(out, name)
			}
		}
	}
	return out
}

// FromSpec resolves a mechanism spec of the form
//
//	name
//	name(value, ...)
//	name(key=value, ...)
//
// against the registry — e.g. "raw", "pipeline", "promesse(epsilon=200)",
// "geoi(0.01)", "w4m(k=4,delta=200)". Positional values are consumed in
// the parameter order documented by each mechanism. The returned
// mechanism's Name is the normalized spec and round-trips through
// FromSpec.
func FromSpec(spec string) (Mechanism, error) {
	name, p, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	registry.RLock()
	f, ok := registry.factories[name]
	registry.RUnlock()
	if !ok {
		if near := closestName(name, Mechanisms()); near != "" {
			return nil, fmt.Errorf("%w %q (did you mean %q? available: %s)",
				ErrUnknownMechanism, name, near, strings.Join(Mechanisms(), ", "))
		}
		return nil, fmt.Errorf("%w %q (available: %s)",
			ErrUnknownMechanism, name, strings.Join(Mechanisms(), ", "))
	}
	m, err := f(p)
	if err != nil {
		return nil, fmt.Errorf("mobipriv: spec %q: %w", spec, err)
	}
	if err := p.finish(); err != nil {
		return nil, fmt.Errorf("mobipriv: spec %q: %w", spec, err)
	}
	return named{name: p.normalized(name), Mechanism: m}, nil
}

// MustFromSpec is FromSpec that panics on error; for lineups and tests
// whose specs are compile-time constants.
func MustFromSpec(spec string) Mechanism {
	m, err := FromSpec(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// SplitSpecs splits a comma-separated list of mechanism specs at
// top-level commas only, so parameterized specs survive:
// "raw,w4m(k=4,delta=200)" yields ["raw", "w4m(k=4,delta=200)"].
// Empty elements are skipped.
func SplitSpecs(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case ',':
			if depth == 0 {
				if el := strings.TrimSpace(s[start:i]); el != "" {
					out = append(out, el)
				}
				start = i + 1
			}
		}
	}
	if el := strings.TrimSpace(s[start:]); el != "" {
		out = append(out, el)
	}
	return out
}

// closestName returns the candidate within Levenshtein distance 2 of
// name (ties broken by registry order, which is sorted), or "" if none
// is close enough — the "did you mean" half of unknown-spec errors.
func closestName(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if d := editDistance(strings.ToLower(name), c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the classic two-row Levenshtein distance; spec names
// are short, so the quadratic cost is irrelevant.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func validSpecName(name string) bool {
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return name != ""
}

// parseSpec splits "name(arg, ...)" into the mechanism name and its
// parameters.
func parseSpec(spec string) (string, *Params, error) {
	s := strings.TrimSpace(spec)
	if s == "" {
		return "", nil, errors.New("mobipriv: empty mechanism spec")
	}
	name := s
	var argList string
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return "", nil, fmt.Errorf("mobipriv: spec %q: missing closing parenthesis", spec)
		}
		name, argList = strings.TrimSpace(s[:i]), s[i+1:len(s)-1]
	}
	if !validSpecName(name) {
		return "", nil, fmt.Errorf("mobipriv: spec %q: invalid mechanism name %q", spec, name)
	}
	p := &Params{kv: make(map[string]string)}
	for _, arg := range strings.Split(argList, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		if eq := strings.IndexByte(arg, '='); eq >= 0 {
			key := strings.TrimSpace(arg[:eq])
			if key == "" {
				return "", nil, fmt.Errorf("mobipriv: spec %q: parameter %q has no key", spec, arg)
			}
			if _, dup := p.kv[key]; dup {
				return "", nil, fmt.Errorf("mobipriv: spec %q: duplicate parameter %q", spec, key)
			}
			val := strings.TrimSpace(arg[eq+1:])
			p.kv[key] = val
			p.args = append(p.args, key+"="+val)
		} else {
			if len(p.kv) > 0 {
				return "", nil, fmt.Errorf("mobipriv: spec %q: positional value %q after named parameters", spec, arg)
			}
			p.pos = append(p.pos, arg)
			p.args = append(p.args, arg)
		}
	}
	return name, p, nil
}

// Params carries the parsed arguments of a mechanism spec. Factories
// read values with the typed accessors; each accessor consumes the
// named parameter if present, otherwise the next positional value,
// otherwise the default. Conversion failures and leftover parameters
// are reported by FromSpec after the factory returns.
type Params struct {
	pos    []string
	posIdx int
	kv     map[string]string
	args   []string // original arguments, normalized, for Name round-tripping
	err    error
}

// take consumes the value for key: named first, then positional.
func (p *Params) take(key string) (string, bool) {
	if v, ok := p.kv[key]; ok {
		delete(p.kv, key)
		return v, true
	}
	if p.posIdx < len(p.pos) {
		v := p.pos[p.posIdx]
		p.posIdx++
		return v, true
	}
	return "", false
}

func (p *Params) fail(key, v, want string) {
	if p.err == nil {
		p.err = fmt.Errorf("parameter %s: cannot parse %q as %s", key, v, want)
	}
}

// Float reads a float64 parameter.
func (p *Params) Float(key string, def float64) float64 {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.fail(key, v, "number")
		return def
	}
	return f
}

// Int reads an int parameter.
func (p *Params) Int(key string, def int) int {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.fail(key, v, "integer")
		return def
	}
	return n
}

// Int64 reads an int64 parameter (seeds).
func (p *Params) Int64(key string, def int64) int64 {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		p.fail(key, v, "integer")
		return def
	}
	return n
}

// Bool reads a boolean parameter ("true"/"false"/"1"/"0").
func (p *Params) Bool(key string, def bool) bool {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		p.fail(key, v, "boolean")
		return def
	}
	return b
}

// Duration reads a time.Duration parameter ("90s", "15m"); a bare
// number is taken as seconds.
func (p *Params) Duration(key string, def time.Duration) time.Duration {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	if d, err := time.ParseDuration(v); err == nil {
		return d
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Duration(secs * float64(time.Second))
	}
	p.fail(key, v, "duration")
	return def
}

// String reads a string parameter verbatim.
func (p *Params) String(key string, def string) string {
	v, ok := p.take(key)
	if !ok {
		return def
	}
	return v
}

// Err returns the first conversion error, if a factory wants to check
// eagerly; FromSpec checks it in any case.
func (p *Params) Err() error { return p.err }

// finish reports the first conversion error or any parameter the
// factory never consumed.
func (p *Params) finish() error {
	if p.err != nil {
		return p.err
	}
	if len(p.kv) > 0 {
		keys := make([]string, 0, len(p.kv))
		for k := range p.kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return fmt.Errorf("unknown parameter(s): %s", strings.Join(keys, ", "))
	}
	if p.posIdx < len(p.pos) {
		return fmt.Errorf("too many positional values (%d unused)", len(p.pos)-p.posIdx)
	}
	return nil
}

// normalized rebuilds the canonical spec string: the original arguments
// with whitespace stripped.
func (p *Params) normalized(name string) string {
	if len(p.args) == 0 {
		return name
	}
	return name + "(" + strings.Join(p.args, ",") + ")"
}
