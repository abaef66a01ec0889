package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cellpilot/internal/cluster"
)

// TestChannelIntegrityProperty drives random payloads through every
// channel type and checks bit-exact delivery — the end-to-end invariant
// behind the whole Table I protocol zoo: whatever the route (plain MPI,
// Co-Pilot relay, mailbox + EA copy), the reader sees exactly the
// writer's bytes.
func TestChannelIntegrityProperty(t *testing.T) {
	prop := func(seed int64, sizeRaw uint16, typRaw uint8) bool {
		typ := int(typRaw)%5 + 1
		size := int(sizeRaw)%4096 + 1
		payload := make([]byte, size)
		s := uint32(seed)
		for i := range payload {
			s = s*1664525 + 1013904223
			payload[i] = byte(s >> 24)
		}
		got := make([]byte, size)

		c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
		if err != nil {
			return false
		}
		a := NewApp(c, Options{})
		var ch *Channel
		write := func(w func(string, ...any)) { w("%*b", size, payload) }
		read := func(r func(string, ...any)) { r("%*b", size, got) }

		speWriter := &SPEProgram{Name: "w", Body: func(ctx *SPECtx) {
			write(func(f string, as ...any) { ctx.Write(ch, f, as...) })
		}}
		speReader := &SPEProgram{Name: "r", Body: func(ctx *SPECtx) {
			read(func(f string, as ...any) { ctx.Read(ch, f, as...) })
		}}

		var runErr error
		switch typ {
		case 1:
			rd := a.CreateProcessOn(2, "rd", func(ctx *Ctx, _ int, _ any) {
				read(func(f string, as ...any) { ctx.Read(ch, f, as...) })
			}, 0, nil)
			ch = a.CreateChannel(a.Main(), rd)
			runErr = a.Run(func(ctx *Ctx) {
				write(func(f string, as ...any) { ctx.Write(ch, f, as...) })
			})
		case 2:
			spe := a.CreateSPE(speReader, a.Main(), 0)
			ch = a.CreateChannel(a.Main(), spe)
			runErr = a.Run(func(ctx *Ctx) {
				ctx.RunSPE(spe, 0, nil)
				write(func(f string, as ...any) { ctx.Write(ch, f, as...) })
			})
		case 3:
			spe := a.CreateSPE(speWriter, a.Main(), 0)
			rd := a.CreateProcessOn(2, "rd", func(ctx *Ctx, _ int, _ any) {
				read(func(f string, as ...any) { ctx.Read(ch, f, as...) })
			}, 0, nil)
			_ = rd
			ch = a.CreateChannel(spe, rd)
			runErr = a.Run(func(ctx *Ctx) {
				ctx.RunSPE(spe, 0, nil)
			})
		case 4:
			sw := a.CreateSPE(speWriter, a.Main(), 0)
			sr := a.CreateSPE(speReader, a.Main(), 1)
			ch = a.CreateChannel(sw, sr)
			runErr = a.Run(func(ctx *Ctx) {
				ctx.RunSPE(sw, 0, nil)
				ctx.RunSPE(sr, 1, nil)
			})
		case 5:
			parent := a.CreateProcessOn(1, "par", func(ctx *Ctx, _ int, arg any) {
				ctx.RunSPE(arg.(*Process), 0, nil)
			}, 0, nil)
			sw := a.CreateSPE(speWriter, a.Main(), 0)
			sr := a.CreateSPE(speReader, parent, 0)
			parent.arg = sr
			ch = a.CreateChannel(sw, sr)
			runErr = a.Run(func(ctx *Ctx) {
				ctx.RunSPE(sw, 0, nil)
			})
		}
		if runErr != nil {
			t.Logf("type %d size %d: %v", typ, size, runErr)
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Logf("type %d size %d: corrupt at %d", typ, size, i)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	if a.Main().ID() != 0 || a.Main().Name() != "PI_MAIN" || a.Main().IsSPE() {
		t.Fatal("PI_MAIN accessors wrong")
	}
	if r, ok := a.Main().Rank(); !ok || r != 0 {
		t.Fatal("PI_MAIN rank wrong")
	}
	prog := &SPEProgram{Name: "s", Body: func(*SPECtx) {}}
	spe := a.CreateSPE(prog, a.Main(), 3)
	if _, ok := spe.Rank(); ok {
		t.Fatal("SPE process must not have an MPI rank")
	}
	if spe.Parent() != a.Main() || spe.Kind() != KindSPE || spe.NodeID() != 0 {
		t.Fatal("SPE accessors wrong")
	}
	ch := a.CreateChannel(a.Main(), spe)
	if ch.ID() != 0 || ch.Type() != Type2 {
		t.Fatal("channel accessors wrong")
	}
	want := fmt.Sprintf("channel 0 (type2: %s -> %s)", a.Main(), spe)
	if ch.String() != want {
		t.Fatalf("channel String = %q, want %q", ch.String(), want)
	}
	b := a.CreateBundle(BundleBroadcast, []*Channel{a.CreateChannel(a.Main(), a.CreateProcessOn(1, "x", func(*Ctx, int, any) {}, 0, nil))})
	if b.ID() != 0 || b.Kind() != BundleBroadcast || b.Common() != a.Main() || len(b.Channels()) != 1 {
		t.Fatal("bundle accessors wrong")
	}
	if BundleBroadcast.String() != "broadcast" || BundleGather.String() != "gather" || BundleSelect.String() != "select" {
		t.Fatal("bundle kind strings wrong")
	}
	// The app cannot Run with a defined-but-never-run regular process
	// reading nothing — just ensure Processes/Channels enumerate.
	if len(a.Processes()) != 3 || len(a.Channels()) != 2 {
		t.Fatalf("processes=%d channels=%d", len(a.Processes()), len(a.Channels()))
	}
}

// TestProcessStringFixedAtRun: String reflects placement changes made in
// the configuration phase (CreateProcessOn moves a process after
// CreateProcess placed it), keeps the same text once Run starts, and from
// then on formats nothing.
func TestProcessStringFixedAtRun(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	x := a.CreateProcessOn(2, "x", func(*Ctx, int, any) {}, 0, nil)
	spe := a.CreateSPE(&SPEProgram{Name: "s", Body: func(*SPECtx) {}}, a.Main(), 3)
	want := map[*Process]string{
		a.Main(): "PI_MAIN(rank0@node0)",
		x:        "x(rank1@node2)",
		spe:      "s#3(spe@node0)",
	}
	for p, w := range want {
		if p.String() != w {
			t.Fatalf("before Run: String = %q, want %q", p.String(), w)
		}
	}
	var allocs float64
	err := a.Run(func(ctx *Ctx) {
		for p, w := range want {
			if p.String() != w {
				t.Errorf("during Run: String = %q, want %q", p.String(), w)
			}
		}
		allocs = testing.AllocsPerRun(10, func() {
			for p := range want {
				stringSink = p.String()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("String allocates %.0f times per %d calls during Run", allocs, len(want))
	}
}

var stringSink string

func TestLogfHook(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var lines []string
	a.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	err := a.Run(func(ctx *Ctx) {
		ctx.Log("hello %d", 42)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "hello 42") || !strings.Contains(lines[0], "PI_MAIN") {
		t.Fatalf("lines = %v", lines)
	}
}
