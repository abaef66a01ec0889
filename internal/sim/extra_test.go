package sim

import (
	"strings"
	"testing"
)

func TestSpawnAfterDelay(t *testing.T) {
	k := NewKernel(1)
	var startedAt Time
	k.SpawnAfter("late", 7*Microsecond, func(p *Proc) {
		startedAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if startedAt != 7*Microsecond {
		t.Fatalf("started at %s", startedAt)
	}
}

func TestReadyIfParked(t *testing.T) {
	k := NewKernel(1)
	var p1 *Proc
	woken := false
	p1 = k.Spawn("sleeper", func(p *Proc) {
		p.Park("waiting for manual wake")
		woken = true
	})
	k.Spawn("waker", func(p *Proc) {
		p.Advance(Microsecond)
		if !k.ReadyIfParked(p1) {
			p.Fatalf("sleeper should be parked")
		}
		if k.ReadyIfParked(p1) {
			p.Fatalf("double wake must be a no-op")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("sleeper never resumed")
	}
}

func TestParkReasonInDeadlockReport(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("stuck", func(p *Proc) {
		p.Park("custom reason xyz")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "custom reason xyz") {
		t.Fatalf("err = %v", err)
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) {
		p.Advance(10 * Microsecond)
		before := p.Now()
		p.AdvanceTo(5 * Microsecond) // in the past
		if p.Now() != before {
			p.Fatalf("AdvanceTo moved backwards")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				p.Fatalf("negative Advance accepted")
			}
			panic(shutdownSentinel{}) // unwind cleanly
		}()
		p.Advance(-1)
	})
	_ = k.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
	if Microsecond.Micros() != 1 {
		t.Fatal("Micros wrong")
	}
}

func TestRunFromProcPanics(t *testing.T) {
	k := NewKernel(1)
	result := make(chan any, 1)
	k.Spawn("p", func(p *Proc) {
		defer func() {
			result <- recover()
			panic(shutdownSentinel{})
		}()
		k.Run() // illegal reentrancy
	})
	_ = k.Run()
	if r := <-result; r == nil {
		t.Fatal("nested Run did not panic")
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel(1)
	p1 := k.Spawn("alpha", func(p *Proc) {
		if p.Name() != "alpha" || p.ID() != 1 || p.Kernel() != k {
			p.Fatalf("identity wrong: %s %d", p.Name(), p.ID())
		}
		if p.Rand() == nil || p.Rand() != p.Rand() {
			p.Fatalf("Rand not stable")
		}
	})
	if p1.Name() != "alpha" {
		t.Fatal("external Name wrong")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
