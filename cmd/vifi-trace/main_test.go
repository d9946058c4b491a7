package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestNoModeIsUsageError(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
}

func TestGenToStdout(t *testing.T) {
	var out, errb strings.Builder
	args := []string{"-gen", "-channel", "6", "-duration", "2m"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Header plus one row per second.
	if len(lines) != 121 {
		t.Errorf("CSV lines = %d, want 121", len(lines))
	}
	if !strings.HasPrefix(lines[0], "second,") {
		t.Errorf("bad header: %s", lines[0])
	}
}

// TestGenInspectRoundTrip writes a trace CSV and inspects it back.
func TestGenInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ch1.csv")
	var out, errb strings.Builder
	if code := run([]string{"-gen", "-duration", "3m", "-o", path}, &out, &errb); code != 0 {
		t.Fatalf("gen exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("missing confirmation: %s", out.String())
	}

	out.Reset()
	if code := run([]string{"-inspect", path}, &out, &errb); code != 0 {
		t.Fatalf("inspect exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"seconds: 180", "basestations:", "visibility CDF"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}
}

func TestInspectMissingFile(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-inspect", "/nonexistent/zzz.csv"}, &out, &errb); code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "vifi-trace:") {
		t.Errorf("stderr missing prefix: %s", errb.String())
	}
}

// TestGenRejectsBadFlags: a channel that was never profiled and a duration
// shorter than one second are usage errors naming the flag, not a panic or
// a header-only trace.
func TestGenRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-gen", "-channel", "2"}, "-channel 2"},
		{[]string{"-gen", "-channel", "0", "-duration", "1m"}, "-channel 0"},
		{[]string{"-gen", "-duration", "-5s"}, "-duration -5s"},
		{[]string{"-gen", "-duration", "500ms"}, "-duration 500ms"},
		{[]string{"-gen", "-duration", "0s"}, "-duration 0s"},
	} {
		var out, errb strings.Builder
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.flag) {
			t.Errorf("%v: stderr %q does not name %q", tc.args, errb.String(), tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %d bytes of output", tc.args, out.Len())
		}
	}
}
