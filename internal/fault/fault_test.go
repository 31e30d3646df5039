package fault

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAllows(t *testing.T) {
	var g *Registry
	out := g.Eval("wal.fsync", 0)
	if out.Err != nil || out.Drop || out.Sleep != 0 || out.Short != -1 {
		t.Fatalf("nil registry injected something: %+v", out)
	}
	if g.Fired() != nil {
		t.Fatalf("nil registry reported fires")
	}
}

func TestNthFiresExactlyOnce(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "wal.fsync", Nth: 3, Act: ActError})
	for call := 1; call <= 6; call++ {
		out := g.Eval("wal.fsync", 0)
		if (out.Err != nil) != (call == 3) {
			t.Fatalf("call %d: err=%v, want fire only on call 3", call, out.Err)
		}
		if call == 3 {
			if !errors.Is(out.Err, ErrInjected) {
				t.Fatalf("injected error does not wrap ErrInjected: %v", out.Err)
			}
			var fe *Error
			if !errors.As(out.Err, &fe) || fe.Point != "wal.fsync" || fe.Call != 3 {
				t.Fatalf("injected error carries wrong metadata: %v", out.Err)
			}
		}
	}
	if got := g.Fired()["wal.fsync"]; got != 1 {
		t.Fatalf("nth rule fired %d times, want 1", got)
	}
}

func TestEveryAndCount(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "conn.write", Every: 2, Count: 2, Act: ActDrop})
	fires := 0
	for call := 1; call <= 10; call++ {
		out := g.Eval("conn.write", 8)
		if out.Err != nil {
			fires++
			if !out.Drop {
				t.Fatalf("drop rule fired without Drop set")
			}
			if call != 2 && call != 4 {
				t.Fatalf("fired on call %d, want calls 2 and 4 only", call)
			}
		}
	}
	if fires != 2 {
		t.Fatalf("count=2 rule fired %d times", fires)
	}
}

func TestAfterBytesAndShort(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "wal.write", After: 100, Act: ActShort, Bytes: 3})
	if out := g.Eval("wal.write", 64); out.Err != nil {
		t.Fatalf("fired at 64 bytes, threshold is 100")
	}
	out := g.Eval("wal.write", 64) // cumulative 128 >= 100
	if out.Err == nil || out.Short != 3 {
		t.Fatalf("want short=3 failure at 128 bytes, got %+v", out)
	}
}

func TestProbIsSeededAndDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		g := New(seed)
		g.MustAdd(Rule{Point: "p", Prob: 0.3, Act: ActError})
		var fired []int
		for i := 0; i < 200; i++ {
			if g.Eval("p", 0).Err != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob=0.3 fired %d/200 times — trigger looks broken", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fire %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDelayOutcome(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "p", Always: true, Act: ActDelay, Delay: 5 * time.Millisecond})
	out := g.Eval("p", 0)
	if out.Err != nil || out.Sleep != 5*time.Millisecond {
		t.Fatalf("delay rule produced %+v", out)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "p", Nth: 1, Act: ActError})
	g.MustAdd(Rule{Point: "p", Always: true, Act: ActDrop})
	out := g.Eval("p", 0)
	if out.Err == nil || out.Drop {
		t.Fatalf("first rule should shadow the second on call 1: %+v", out)
	}
	out = g.Eval("p", 0)
	if !out.Drop {
		t.Fatalf("second rule should fire once the nth rule is spent: %+v", out)
	}
}

func TestParse(t *testing.T) {
	g, err := Parse(7, "wal.fsync:nth=3:error, conn.write:prob=0.5:drop, wal.write:after=4096:short=3, conn.read:every=10:delay=2ms:count=5")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := len(g.rules); n != 4 {
		t.Fatalf("parsed %d rules, want 4", n)
	}
	r := g.rules[2]
	if r.Point != "wal.write" || r.After != 4096 || r.Act != ActShort || r.Bytes != 3 {
		t.Fatalf("rule 2 parsed wrong: %+v", r.Rule)
	}
	if g.rules[3].Count != 5 || g.rules[3].Delay != 2*time.Millisecond {
		t.Fatalf("rule 3 parsed wrong: %+v", g.rules[3].Rule)
	}
	if g, err := Parse(1, ""); err != nil || len(g.rules) != 0 {
		t.Fatalf("empty spec should parse to an empty registry: %v", err)
	}
	for _, bad := range []string{
		"wal.fsync", "wal.fsync:nth=0:error", "wal.fsync:sometimes:error",
		"wal.fsync:nth=1:explode", "p:prob=1.5:error", "p:nth=1:error:count=0",
		"p:nth=1:error:extra=1",
	} {
		if _, err := Parse(1, bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// FuzzParse: any spec either fails to parse or yields a registry, and
// Parse never panics; a spec it accepts parses to the same rules a
// second time. The corpus is seeded with every schedule the repository
// passes: the net-smoke faults leg's, the benchmark's modelled fsync,
// kvsoak's, the doc example and TestParse's.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"",
		"wal.fsync:nth=3:error",
		"wal.fsync:always:delay=200us",
		"wal.fsync:nth=123:error",
		"wal.fsync:nth=3:error,conn.write:prob=0.01:drop",
		"wal.fsync:nth=3:error, conn.write:prob=0.5:drop, wal.write:after=4096:short=3, conn.read:every=10:delay=2ms:count=5",
		"conn.read:every=2:short",
		"wal.fsync", "wal.fsync:nth=0:error", "wal.fsync:sometimes:error",
		"wal.fsync:nth=1:explode", "p:prob=1.5:error", "p:nth=1:error:count=0",
		"p:nth=1:error:extra=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := Parse(1, spec)
		if (g == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a registry and an error", spec, g, err)
		}
		if err != nil {
			return
		}
		again, err := Parse(1, spec)
		if err != nil {
			t.Fatalf("Parse(%q) accepted once, then failed: %v", spec, err)
		}
		if !reflect.DeepEqual(g.rules, again.rules) {
			t.Fatalf("Parse(%q) parsed two different rule sets", spec)
		}
	})
}

func TestValidateRejectsAmbiguousTriggers(t *testing.T) {
	g := New(1)
	if err := g.Add(Rule{Point: "p", Nth: 1, Always: true, Act: ActError}); err == nil {
		t.Fatalf("two triggers on one rule should be rejected")
	}
	if err := g.Add(Rule{Point: "", Nth: 1, Act: ActError}); err == nil {
		t.Fatalf("empty point should be rejected")
	}
	if err := g.Add(Rule{Point: "p", Act: ActError}); err == nil {
		t.Fatalf("no trigger should be rejected")
	}
}

func TestConcurrentEval(t *testing.T) {
	g := New(1)
	g.MustAdd(Rule{Point: "p", Every: 7, Act: ActError})
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for j := 0; j < 700; j++ {
				if g.Eval("p", 1).Err != nil {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 800 {
		t.Fatalf("every=7 over 5600 calls fired %d times, want 800", total)
	}
}
