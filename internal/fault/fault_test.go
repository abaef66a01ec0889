package fault

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"cellpilot/internal/sim"
)

// TestLinkVerdictDeterminism: the same seed yields the same verdict
// sequence; a different seed diverges.
func TestLinkVerdictDeterminism(t *testing.T) {
	plan := Plan{Seed: 17, Links: []LinkPolicy{
		{From: 0, To: 1, DropProb: 0.3, CorruptProb: 0.1, DelayProb: 0.2, MaxDelay: 5 * sim.Microsecond},
	}}
	draw := func(p Plan) []Verdict {
		in := NewInjector(p)
		out := make([]Verdict, 100)
		for i := range out {
			out[i] = in.LinkVerdict(0, 1, 64)
		}
		return out
	}
	a, b := draw(plan), draw(plan)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged for identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := plan
	other.Seed = 18
	c := draw(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 100-verdict sequence")
	}
}

// TestLinkVerdictCleanLink: an uncovered link never faults and consumes no
// randomness — interleaving clean-link calls must not perturb the faulty
// link's sequence.
func TestLinkVerdictCleanLink(t *testing.T) {
	plan := Plan{Seed: 5, Links: []LinkPolicy{{From: 0, To: 1, DropProb: 0.5}}}
	inA := NewInjector(plan)
	inB := NewInjector(plan)
	for i := 0; i < 50; i++ {
		if v := inB.LinkVerdict(1, 2, 64); v != (Verdict{}) {
			t.Fatalf("clean link returned a fault verdict: %+v", v)
		}
		a, b := inA.LinkVerdict(0, 1, 64), inB.LinkVerdict(0, 1, 64)
		if a != b {
			t.Fatalf("draw %d: clean-link calls perturbed the RNG stream: %+v vs %+v", i, a, b)
		}
	}
	if inB.Counts.LinkDrops == 0 {
		t.Fatal("50 draws at 50% drop produced no drops")
	}
}

// TestLinkVerdictDirected: policies are directed; the reverse direction of
// a covered pair is clean unless it has its own policy.
func TestLinkVerdictDirected(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Links: []LinkPolicy{{From: 0, To: 1, DropProb: 1.0}}})
	if !in.LinkFaulty(0, 1) || in.LinkFaulty(1, 0) {
		t.Fatal("LinkFaulty ignores direction")
	}
	if v := in.LinkVerdict(0, 1, 8); !v.Drop {
		t.Fatalf("forward draw on a 100%% lossy link: %+v", v)
	}
	if v := in.LinkVerdict(1, 0, 8); v != (Verdict{}) {
		t.Fatalf("reverse draw faulted without a policy: %+v", v)
	}
}

// TestMailboxVerdictOneShot: each armed MailboxDrop/MailboxStall fires
// exactly once, drops win over stalls, and only the named proc is hit.
func TestMailboxVerdictOneShot(t *testing.T) {
	k := sim.NewKernel(1)
	in := NewInjector(Plan{Events: []Event{
		{At: 0, Kind: MailboxDrop, Proc: "spe#0"},
		{At: 0, Kind: MailboxStall, Proc: "spe#0", Delay: 7 * sim.Microsecond},
	}})
	if !in.UsesMailbox() {
		t.Fatal("UsesMailbox false with mailbox events planned")
	}
	in.Arm(k)
	if err := k.Run(); err != nil { // fires the arming events at t=0
		t.Fatal(err)
	}
	if drop, _ := in.MailboxVerdict("other#1"); drop {
		t.Fatal("fault leaked to an unnamed process")
	}
	drop, stall := in.MailboxVerdict("spe#0")
	if !drop || stall != 0 {
		t.Fatalf("first verdict = (%v, %s), want the drop first", drop, stall)
	}
	drop, stall = in.MailboxVerdict("spe#0")
	if drop || stall != 7*sim.Microsecond {
		t.Fatalf("second verdict = (%v, %s), want the 7us stall", drop, stall)
	}
	if drop, stall = in.MailboxVerdict("spe#0"); drop || stall != 0 {
		t.Fatal("one-shot faults fired more than once")
	}
	if in.Counts.MailboxDrops != 1 || in.Counts.MailboxStalls != 1 {
		t.Fatalf("counts = %+v", in.Counts)
	}
}

// TestCapabilityGates: the zero plan arms nothing — both capability gates
// are off, so the hardened layers stay on their fast paths.
func TestCapabilityGates(t *testing.T) {
	in := NewInjector(Plan{})
	if in.UsesLinks() || in.UsesMailbox() {
		t.Fatal("zero plan claims capabilities")
	}
	in2 := NewInjector(Plan{Events: []Event{{Kind: KillSPE, Proc: "x#0"}}})
	if in2.UsesLinks() || in2.UsesMailbox() {
		t.Fatal("kill-only plan should not gate links or mailbox protocols on")
	}
	in3 := NewInjector(Plan{Links: []LinkPolicy{{From: 0, To: 1, DropProb: 0.1}}})
	if !in3.UsesLinks() || in3.UsesMailbox() {
		t.Fatal("link-only plan gates wrong")
	}
}

// TestArmOrderInsensitive: plans listing the same events in different
// orders fire them identically (sorted by At, stable).
func TestArmOrderInsensitive(t *testing.T) {
	run := func(evs []Event) []string {
		k := sim.NewKernel(1)
		in := NewInjector(Plan{Events: evs})
		var fired []string
		in.OnEvent = func(e Event) { fired = append(fired, e.Kind.String()+"/"+e.Proc) }
		in.Arm(k)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	a := run([]Event{
		{At: 2 * sim.Microsecond, Kind: KillSPE, Proc: "b#1"},
		{At: 1 * sim.Microsecond, Kind: KillSPE, Proc: "a#0"},
	})
	b := run([]Event{
		{At: 1 * sim.Microsecond, Kind: KillSPE, Proc: "a#0"},
		{At: 2 * sim.Microsecond, Kind: KillSPE, Proc: "b#1"},
	})
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("firing order depends on list order: %v vs %v", a, b)
	}
	if strings.Join(a, ",") != "kill-spe/a#0,kill-spe/b#1" {
		t.Fatalf("fired %v", a)
	}
}

// TestKindString covers the Stringer, including the unknown fallback.
func TestKindString(t *testing.T) {
	want := map[Kind]string{
		CrashNode:    "crash-node",
		KillSPE:      "kill-spe",
		KillCoPilot:  "kill-copilot",
		MailboxDrop:  "mailbox-drop",
		MailboxStall: "mailbox-stall",
		Kind(99):     "fault(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestLogDeterminism: Logf/Log render timestamps and are copied out (the
// caller cannot mutate the injector's log).
func TestLogDeterminism(t *testing.T) {
	in := NewInjector(Plan{})
	in.Logf(3*sim.Microsecond, "hello %d", 7)
	got := in.Log()
	if len(got) != 1 || !strings.Contains(got[0], "hello 7") {
		t.Fatalf("log = %v", got)
	}
	got[0] = "mutated"
	if in.Log()[0] == "mutated" {
		t.Fatal("Log returned the internal slice")
	}
}

// TestCountersTable: Counters names every int64 field of Counts exactly
// once, in field order, under the field's snake_case name.
func TestCountersTable(t *testing.T) {
	var c Counts
	v := reflect.ValueOf(&c).Elem()
	i := 0
	for f := 0; f < v.NumField(); f++ {
		field := v.Type().Field(f)
		if field.Type.Kind() != reflect.Int64 {
			continue
		}
		if i >= len(Counters) {
			t.Fatalf("Counts.%s has no Counters entry", field.Name)
		}
		var snake strings.Builder
		for j, r := range field.Name {
			if unicode.IsUpper(r) && j > 0 {
				snake.WriteByte('_')
			}
			snake.WriteRune(unicode.ToLower(r))
		}
		if got := Counters[i]; got.Name != snake.String() || got.Of(&c) != v.Field(f).Addr().Interface().(*int64) {
			t.Errorf("Counters[%d] = %q, want %q reading Counts.%s", i, got.Name, snake.String(), field.Name)
		}
		i++
	}
	if i != len(Counters) {
		t.Errorf("Counters has %d entries, Counts %d int64 fields", len(Counters), i)
	}
}
