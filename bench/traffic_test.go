package main

import (
	"bytes"
	"testing"

	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

const testScale = 0.02

func testTraffic(t *testing.T, name string, seed int64) *traffic {
	t.Helper()
	day, _, err := baseDay(findWorkload(name), seed, testScale)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := buildTraffic(day, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func bodiesOf(tr *traffic) [][]byte {
	var out [][]byte
	for _, c := range tr.conns {
		out = append(out, c.bodies...)
	}
	return out
}

// The traffic is pinned by the seed: equal seeds give equal bytes and
// checksum, another seed gives other traffic, and the routed workload
// sends exactly what serve-commuters sends.
func TestTrafficPinnedBySeed(t *testing.T) {
	a, b := testTraffic(t, "serve-commuters", 1), testTraffic(t, "serve-commuters", 1)
	if a.checksum != b.checksum {
		t.Errorf("same seed, checksums %s and %s", a.checksum, b.checksum)
	}
	ab, bb := bodiesOf(a), bodiesOf(b)
	if len(ab) != len(bb) {
		t.Fatalf("same seed, %d and %d bodies", len(ab), len(bb))
	}
	for i := range ab {
		if !bytes.Equal(ab[i], bb[i]) {
			t.Fatalf("same seed, body %d differs", i)
		}
	}
	if other := testTraffic(t, "serve-commuters", 2); other.checksum == a.checksum {
		t.Errorf("seeds 1 and 2 share checksum %s", a.checksum)
	}
	if routed := testTraffic(t, "serve-routed", 1); routed.checksum != a.checksum {
		t.Errorf("serve-routed checksum %s, serve-commuters %s", routed.checksum, a.checksum)
	}
	if fleet := testTraffic(t, "serve-fleet-geoi", 1); fleet.checksum == a.checksum {
		t.Errorf("serve-fleet-geoi shares serve-commuters' checksum %s", a.checksum)
	}
}

// Every body decodes, through the server's own decoder, to the points
// it was encoded from — under cohort 0's names as built, and under
// cohort k's once patched.
func TestBodiesRoundTrip(t *testing.T) {
	tr := testTraffic(t, "serve-fleet-geoi", 1)
	points := 0
	owner := map[int32]int{}
	for ci := range tr.conns {
		c := &tr.conns[ci]
		for i, body := range c.bodies {
			if i+1 < len(c.bodies) && len(c.tagOffs[i]) != bodyPoints {
				t.Fatalf("connection %d body %d holds %d points", ci, i, len(c.tagOffs[i]))
			}
			for _, k := range []int{0, 7, 0} {
				c.setCohort(i, k)
				want := c.bodyRecs(i)
				n := 0
				err := traceio.DecodeJSONL(bytes.NewReader(body), func(user string, p trace.Point) error {
					if n >= len(want) {
						t.Fatalf("connection %d body %d: more than %d records", ci, i, len(want))
					}
					r := want[n]
					n++
					if name := cohortName(tr.users[r.user][len("c0-"):], k); user != name {
						t.Fatalf("cohort %d: user %q, want %q", k, user, name)
					}
					if !p.Time.Equal(r.pt.Time) || p.Point != r.pt.Point {
						t.Fatalf("connection %d body %d record %d: %v, want %v", ci, i, n, p, r.pt)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if n != len(want) {
					t.Fatalf("connection %d body %d: %d records, want %d", ci, i, n, len(want))
				}
			}
			points += len(c.tagOffs[i])
		}
		// One connection owns all of a user's points, in time order.
		last := map[int32]trace.Point{}
		for _, r := range c.recs {
			if prev, ok := last[r.user]; ok && !r.pt.Time.After(prev.Time) {
				t.Fatalf("user %s out of order on connection %d", tr.users[r.user], ci)
			}
			last[r.user] = r.pt
			if o, ok := owner[r.user]; ok && o != ci {
				t.Fatalf("user %s on connections %d and %d", tr.users[r.user], o, ci)
			}
			owner[r.user] = ci
		}
	}
	if points != tr.points {
		t.Errorf("bodies hold %d points, the day %d", points, tr.points)
	}
}
