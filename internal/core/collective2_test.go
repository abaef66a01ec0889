package core

import (
	"errors"
	"strings"
	"testing"

	"cellpilot/internal/fmtmsg"
	"cellpilot/internal/sim"
)

func TestScatterDistributesChunks(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	const workers, chunk = 3, 4
	var toW []*Channel
	got := make([][]int32, workers)
	fn := func(ctx *Ctx, index int, _ any) {
		buf := make([]int32, chunk)
		ctx.Read(toW[index], "%4d", buf)
		got[index] = buf
	}
	var ws []*Process
	for i := 0; i < workers; i++ {
		ws = append(ws, a.CreateProcessOn(i%3, "w", fn, i, nil))
	}
	for i := 0; i < workers; i++ {
		toW = append(toW, a.CreateChannel(a.Main(), ws[i]))
	}
	b := a.CreateBundle(BundleScatter, toW)
	data := make([]int32, workers*chunk)
	for i := range data {
		data[i] = int32(i * 10)
	}
	if err := a.Run(func(ctx *Ctx) {
		ctx.Scatter(b, "%4d", data)
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for j := 0; j < chunk; j++ {
			if got[w][j] != int32((w*chunk+j)*10) {
				t.Fatalf("worker %d got %v", w, got[w])
			}
		}
	}
}

func TestReduceOperators(t *testing.T) {
	cases := []struct {
		op   ReduceOp
		want []int32
	}{
		{OpSum, []int32{3 + 5 + 7, 30 + 50 + 70}},
		{OpMin, []int32{3, 30}},
		{OpMax, []int32{7, 70}},
	}
	for _, tc := range cases {
		c := newTestCluster(t)
		a := NewApp(c, Options{})
		var fromW []*Channel
		contrib := [][]int32{{3, 30}, {5, 50}, {7, 70}}
		fn := func(ctx *Ctx, index int, _ any) {
			ctx.Write(fromW[index], "%2d", contrib[index])
		}
		var ws []*Process
		for i := 0; i < 3; i++ {
			ws = append(ws, a.CreateProcessOn(i%3, "w", fn, i, nil))
		}
		for i := 0; i < 3; i++ {
			fromW = append(fromW, a.CreateChannel(ws[i], a.Main()))
		}
		b := a.CreateBundle(BundleReduce, fromW)
		out := make([]int32, 2)
		if err := a.Run(func(ctx *Ctx) {
			ctx.Reduce(b, "%2d", tc.op, out)
		}); err != nil {
			t.Fatalf("%s: %v", tc.op, err)
		}
		if out[0] != tc.want[0] || out[1] != tc.want[1] {
			t.Fatalf("%s: out = %v, want %v", tc.op, out, tc.want)
		}
	}
}

func TestReduceFloatsAndNegatives(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	var fromW []*Channel
	contrib := [][]float64{{-1.5, 2.25}, {3.5, -4.5}}
	fn := func(ctx *Ctx, index int, _ any) {
		ctx.Write(fromW[index], "%2lf", contrib[index])
	}
	var ws []*Process
	for i := 0; i < 2; i++ {
		ws = append(ws, a.CreateProcessOn(i+1, "w", fn, i, nil))
	}
	for i := 0; i < 2; i++ {
		fromW = append(fromW, a.CreateChannel(ws[i], a.Main()))
	}
	b := a.CreateBundle(BundleReduce, fromW)
	out := make([]float64, 2)
	if err := a.Run(func(ctx *Ctx) {
		ctx.Reduce(b, "%2lf", OpSum, out)
	}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2.0 || out[1] != -2.25 {
		t.Fatalf("out = %v", out)
	}
}

func TestReduceOverSPEWriters(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{SPECollectives: true})
	var fromW []*Channel
	mk := func(id int) *SPEProgram {
		return &SPEProgram{Name: "part", Body: func(ctx *SPECtx) {
			ctx.Write(fromW[id], "%d", int32(id+1))
		}}
	}
	spes := []*Process{
		a.CreateSPE(mk(0), a.Main(), 0),
		a.CreateSPE(mk(1), a.Main(), 1),
		a.CreateSPE(mk(2), a.Main(), 2),
	}
	for i := range spes {
		fromW = append(fromW, a.CreateChannel(spes[i], a.Main()))
	}
	b := a.CreateBundle(BundleReduce, fromW)
	out := make([]int32, 1)
	if err := a.Run(func(ctx *Ctx) {
		for i, s := range spes {
			ctx.RunSPE(s, i, nil)
		}
		ctx.Reduce(b, "%d", OpSum, out)
	}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 6 {
		t.Fatalf("sum = %d", out[0])
	}
}

func TestScatterReduceMisuse(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{})
	w := a.CreateProcessOn(1, "w", func(ctx *Ctx, _ int, arg any) {
		ctx.Read(arg.(*Channel), "%4d", make([]int32, 4))
	}, 0, nil)
	ch := a.CreateChannel(a.Main(), w)
	w.arg = ch
	b := a.CreateBundle(BundleScatter, []*Channel{ch})
	err := a.Run(func(ctx *Ctx) {
		// Star formats are rejected for scatter.
		ctx.Scatter(b, "%*d", make([]int32, 4))
	})
	if err == nil || !strings.Contains(err.Error(), "single fixed-count item") {
		t.Fatalf("err = %v", err)
	}

	c2 := newTestCluster(t)
	a2 := NewApp(c2, Options{})
	w2 := a2.CreateProcessOn(1, "w2", func(ctx *Ctx, _ int, arg any) {
		ctx.Write(arg.(*Channel), "%Lf", LongDoubleZero())
	}, 0, nil)
	ch2 := a2.CreateChannel(w2, a2.Main())
	w2.arg = ch2
	b2 := a2.CreateBundle(BundleReduce, []*Channel{ch2})
	err = a2.Run(func(ctx *Ctx) {
		ctx.Reduce(b2, "%Lf", OpSum, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "cannot be reduced") {
		t.Fatalf("err = %v", err)
	}
}

// LongDoubleZero builds a zero long double for the misuse test.
func LongDoubleZero() fmtmsg.LongDoubleVal { return fmtmsg.LongDoubleVal{} }

// TestReduceHonoursOpTimeout: Reduce's receives are bounded like Read's.
// One writer never writes, so under OpTimeout the reader's Reduce times
// out on that channel and unwinds, and Run reports the fault instead of
// a deadlock.
func TestReduceHonoursOpTimeout(t *testing.T) {
	c := newTestCluster(t)
	a := NewApp(c, Options{OpTimeout: sim.Millisecond})
	var fromW []*Channel
	fn := func(ctx *Ctx, index int, _ any) {
		if index == 0 {
			ctx.Write(fromW[0], "%2d", []int32{1, 2})
		}
	}
	ws := []*Process{a.CreateProcessOn(1, "w", fn, 0, nil), a.CreateProcessOn(2, "w", fn, 1, nil)}
	for _, w := range ws {
		fromW = append(fromW, a.CreateChannel(w, a.Main()))
	}
	b := a.CreateBundle(BundleReduce, fromW)
	err := a.Run(func(ctx *Ctx) {
		ctx.Reduce(b, "%2d", OpSum, make([]int32, 2))
	})
	var sum *FaultSummary
	if !errors.As(err, &sum) {
		t.Fatalf("Run returned %v, want a *FaultSummary", err)
	}
	if len(sum.Faults) != 1 {
		t.Fatalf("faults %v, want one", sum.Faults)
	}
	if f := sum.Faults[0]; f.API != "PI_Reduce" || !f.Timeout || f.ChannelID != fromW[1].id {
		t.Fatalf("fault %+v, want PI_Reduce timing out on %s", f, fromW[1])
	}
}
