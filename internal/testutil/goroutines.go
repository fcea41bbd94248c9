// Package testutil holds small helpers shared by this repository's test
// suites. It must not be imported from non-test code.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the helpers need; taking the interface
// keeps testutil importable without the testing package leaking into
// builds.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// ExpectNoModuleGoroutines polls until every goroutine still running this
// module's code has exited, or the wait elapses — and then fails the test
// listing the survivors' stacks. Call it after tearing down the component
// under test: it is the teardown leak check proving Close really releases
// every reader, writer, monitor and redial goroutine.
//
// Goroutines whose stacks include a _test.go frame are ignored (they belong
// to the test itself, including the caller), as are testutil's own frames —
// so the check is only meaningful in tests that do not leave their own
// module-code goroutines running on purpose.
func ExpectNoModuleGoroutines(t TB, wait time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wait)
	var leftover []string
	for {
		leftover = moduleGoroutines()
		if len(leftover) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("testutil: %d module goroutine(s) survived teardown:\n\n%s",
		len(leftover), strings.Join(leftover, "\n\n"))
}

// moduleGoroutines returns the stacks of live goroutines executing (or
// created by) this module's non-test code.
func moduleGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, s := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(s, "streambalance/") {
			continue
		}
		if strings.Contains(s, "_test.go") || strings.Contains(s, "/testutil.") {
			continue
		}
		out = append(out, s)
	}
	return out
}
