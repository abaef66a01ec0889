package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
)

// callerLoc reports the user code location (file:line) skip frames above
// the caller. Pilot's hallmark diagnostics report API misuse by source
// file and line number; every abort in this package carries one.
//
// Every channel operation takes its location, although only a diagnostic
// or a deadlock report reads it, so the common path must be cheap: it
// captures one program counter and looks its text up in locs, formatting
// only the first time a call site is seen.
func callerLoc(skip int) string {
	var pc [1]uintptr
	if runtime.Callers(skip+2, pc[:]) == 0 {
		return "unknown:0"
	}
	locs.RLock()
	loc, ok := locs.m[pc[0]]
	locs.RUnlock()
	if ok {
		return loc
	}
	// A fresh slice: handing pc[:] to CallersFrames would move pc to the
	// heap on the hit path too.
	frame, _ := runtime.CallersFrames([]uintptr{pc[0]}).Next()
	if frame.PC == 0 {
		return "unknown:0"
	}
	loc = fmt.Sprintf("%s:%d", filepath.Base(frame.File), frame.Line)
	locs.Lock()
	locs.m[pc[0]] = loc
	locs.Unlock()
	return loc
}

// locs memoizes callerLoc's text by program counter. A PC names one call
// site, or one inlined copy of it, so the map is bounded by the program
// text. Apps run on concurrent goroutines (kiloscale), hence the lock.
var locs = struct {
	sync.RWMutex
	m map[uintptr]string
}{m: map[uintptr]string{}}

// usageError formats a Pilot-style diagnostic: location, API name, detail.
func usageError(loc, api, format string, args ...any) error {
	return fmt.Errorf("pilot: %s: %s: %s", loc, api, fmt.Sprintf(format, args...))
}
