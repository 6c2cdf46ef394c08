// Package proftest reads pprof goroutine labels back for tests. The runtime
// offers no API to read a goroutine's labels, but the goroutine profile's
// debug=1 text prints each record's label set (`# labels: {...}`), so
// label-propagation tests read it there.
package proftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Goroutine is one record of the goroutine profile: Count goroutines that
// share one stack and one label set.
type Goroutine struct {
	Count  int
	Labels map[string]string // nil when unlabelled
	Stack  string            // the record's frame lines, one function per line
}

// Goroutines captures the goroutine profile and parses its debug=1 text.
func Goroutines() ([]Goroutine, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return nil, err
	}
	var out []Goroutine
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			// A record starts "<count> @ <pcs>"; skip the profile header.
			if count, _, ok := strings.Cut(line, " @"); ok {
				n, err := strconv.Atoi(count)
				if err != nil {
					return nil, fmt.Errorf("proftest: record header %q: %v", line, err)
				}
				out = append(out, Goroutine{Count: n})
			}
			continue
		}
		if len(out) == 0 {
			continue
		}
		g := &out[len(out)-1]
		if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
			if err := json.Unmarshal([]byte(labels), &g.Labels); err != nil {
				return nil, fmt.Errorf("proftest: labels %q: %v", labels, err)
			}
			continue
		}
		g.Stack += line + "\n"
	}
	return out, nil
}
