package main

import (
	"strings"
	"testing"
)

// TestSmoke replays two trips instead of eight so it stays fast in CI,
// and pins the whole output.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	run(&out, 31, 2)
	if got := out.String(); got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

const want = `Generating VanLAN probe logs (2 shuttle trips)...

policy       packets (both) median session @50%/1s (s)
RSSI                   3527                          6
BRR                    3554                          5
Sticky                 2902                          4
History                3540                          5
BestBS                 4018                          6
AllBSes                5306                         20

aggregate: BRR delivers 67% of the AllBSes oracle —
yet its uninterrupted sessions are several times shorter.
That gap is the case for basestation diversity (§3).
`
