package fmtmsg

import (
	"fmt"
	"sync"
)

// parseCache memoizes parsed formats; Pilot programs use a small set of
// literal formats on hot paths. Guarded by a mutex because parsing can be
// reached from outside the simulation (tests, tools).
var parseCache sync.Map // string -> *Spec

// Parse parses a Pilot format string such as "%d", "%100Lf" or "%*f %b".
// Whitespace between conversions is allowed and ignored.
func Parse(format string) (*Spec, error) {
	if v, ok := parseCache.Load(format); ok {
		return v.(*Spec), nil
	}
	s, err := parse(format)
	if err != nil {
		return nil, err
	}
	parseCache.Store(format, s)
	return s, nil
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(format string) *Spec {
	s, err := Parse(format)
	if err != nil {
		panic(err)
	}
	return s
}

func parse(format string) (*Spec, error) {
	s := &Spec{Format: format}
	i := 0
	n := len(format)
	for i < n {
		c := format[i]
		if c == ' ' || c == '\t' {
			i++
			continue
		}
		if c != '%' {
			return nil, fmt.Errorf("fmtmsg: %q: unexpected %q at %d (conversions start with %%)", format, c, i)
		}
		i++
		it := Item{Count: 1}
		if i < n && format[i] == '*' {
			it.Star = true
			i++
		} else {
			start := i
			for i < n && format[i] >= '0' && format[i] <= '9' {
				i++
			}
			if i > start {
				const maxCount = 1 << 28 // far beyond any 256 KB local store
				count := 0
				for _, d := range format[start:i] {
					count = count*10 + int(d-'0')
					if count > maxCount {
						return nil, fmt.Errorf("fmtmsg: %q: count overflows at %d", format, start)
					}
				}
				if count <= 0 {
					return nil, fmt.Errorf("fmtmsg: %q: count must be positive at %d", format, start)
				}
				it.Count = count
			}
		}
		var typ ElemType
		switch {
		case i < n && format[i] == 'b':
			typ, i = Byte, i+1
		case i < n && format[i] == 'c':
			typ, i = Char, i+1
		case i+1 < n && format[i] == 'h' && format[i+1] == 'd':
			typ, i = Int16, i+2
		case i < n && format[i] == 'd':
			typ, i = Int32, i+1
		case i+1 < n && format[i] == 'l' && format[i+1] == 'd':
			typ, i = Int64, i+2
		case i+1 < n && format[i] == 'l' && format[i+1] == 'u':
			typ, i = Uint64, i+2
		case i < n && format[i] == 'u':
			typ, i = Uint32, i+1
		case i+1 < n && format[i] == 'l' && format[i+1] == 'f':
			typ, i = Float64, i+2
		case i+1 < n && format[i] == 'L' && format[i+1] == 'f':
			typ, i = LongDouble, i+2
		case i < n && format[i] == 'f':
			typ, i = Float32, i+1
		default:
			return nil, fmt.Errorf("fmtmsg: %q: unknown conversion at %d", format, i)
		}
		it.Type = typ
		s.Items = append(s.Items, it)
	}
	if len(s.Items) == 0 {
		return nil, fmt.Errorf("fmtmsg: %q: no conversions", format)
	}
	s.sig = signature(s.Items)
	return s, nil
}
