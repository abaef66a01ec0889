package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cellpilot/internal/cluster"
)

// misuse runs an App whose main process writes on a channel it only
// reads, from one of two call sites in the same function, and reports
// Run's error and the file:line runtime.Caller gives for that site.
func misuse(site int) (want string, err error) {
	c, err := cluster.New(cluster.Spec{CellNodes: 2, XeonNodes: 1})
	if err != nil {
		return "", err
	}
	a := NewApp(c, Options{})
	peer := a.CreateProcessOn(1, "peer", func(*Ctx, int, any) {}, 0, nil)
	ch := a.CreateChannel(peer, a.Main())
	err = a.Run(func(ctx *Ctx) {
		if site == 0 {
			_, file, line, _ := runtime.Caller(0)
			want = fmt.Sprintf("%s:%d", filepath.Base(file), line+2)
			ctx.Write(ch, "%d", int32(0))
		}
		_, file, line, _ := runtime.Caller(0)
		want = fmt.Sprintf("%s:%d", filepath.Base(file), line+2)
		ctx.Write(ch, "%d", int32(1))
	})
	return want, err
}

// checkMisuse reports whether err is the writer-enforcement diagnostic
// located at want.
func checkMisuse(want string, err error) error {
	if err == nil || !strings.Contains(err.Error(), "pilot: "+want+": PI_Write: ") ||
		!strings.Contains(err.Error(), "is not the writer of") {
		return fmt.Errorf("err = %v, want the PI_Write diagnostic at %s", err, want)
	}
	return nil
}

// TestDiagnosticsNameTheirOwnLine: call-site locations are memoized per
// program counter, yet two misuses on different lines of one function
// each report their own line, the first time and again once memoized.
func TestDiagnosticsNameTheirOwnLine(t *testing.T) {
	for _, site := range []int{0, 1, 0, 1} {
		if err := checkMisuse(misuse(site)); err != nil {
			t.Errorf("site %d: %v", site, err)
		}
	}
}

// TestDiagnosticsConcurrentApps is TestDiagnosticsNameTheirOwnLine from
// eight Apps on concurrent goroutines, which share the location memo (run
// it under -race).
func TestDiagnosticsConcurrentApps(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = checkMisuse(misuse(i % 2))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("app %d: %v", i, err)
		}
	}
}
