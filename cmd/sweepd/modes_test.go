package main

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"stochsynth/internal/cli"
)

// TestModeTable is generated from modes. For every mode and every flag
// sweepd defines that the mode does not read, the mode's selecting args
// plus -flag=<default> exit 1 with exactly one stderr line naming the flag
// and nothing on stdout; all of those flags at once print one line each,
// in flag order. Given with a later mode's selecting args, a mode names
// that mode's selector: the table is in precedence order. run kills a
// -serve worker that serves anyway. The test fails when a flag is read by
// no mode, or when a mode has no selecting args here.
func TestModeTable(t *testing.T) {
	bin := buildSweepd(t)
	selectors := map[string][]string{
		"-serve": {"-serve", "127.0.0.1:0"},
		"-list":  {"-list"},
		"-sweep": {"-sweep", "lambda/synthetic"},
		"-model": {"-model", "testdata/relay-chain.crn"},
	}
	defs := flagDefaults(t, bin)
	names := slices.Sorted(maps.Keys(defs))
	for _, m := range modes {
		for _, f := range m.Reads {
			if _, ok := defs[f]; !ok {
				t.Errorf("mode %s reads -%s, which sweepd does not define", m.Name, f)
			}
		}
	}
	for _, f := range names {
		if !slices.ContainsFunc(modes, func(m cli.Mode) bool { return slices.Contains(m.Reads, f) }) {
			t.Errorf("no mode reads -%s", f)
		}
	}
	for i, m := range modes {
		sel, ok := selectors[m.Name]
		if !ok {
			t.Errorf("mode %s has no selecting args", m.Name)
			continue
		}
		var unread []string
		var lines string
		for _, f := range names {
			if slices.Contains(m.Reads, f) {
				continue
			}
			arg, line := "-"+f+"="+defs[f], fmt.Sprintf("sweepd: -%s does not apply with %s\n", f, m.Name)
			expectRefusal(t, bin, slices.Concat(sel, []string{arg}), line)
			unread, lines = append(unread, arg), lines+line
		}
		if len(unread) > 1 {
			expectRefusal(t, bin, slices.Concat(sel, unread), lines)
		}
		for _, later := range modes[i+1:] {
			if lsel := selectors[later.Name]; len(lsel) > 0 {
				expectRefusal(t, bin, slices.Concat(sel, lsel),
					fmt.Sprintf("sweepd: %s does not apply with %s\n", lsel[0], m.Name))
			}
		}
	}
}

// expectRefusal requires bin args to exit 1 printing exactly want on
// stderr and nothing on stdout.
func expectRefusal(t *testing.T, bin string, args []string, want string) {
	t.Helper()
	stdout, stderr, code := run(t, bin, args...)
	if code != 1 || string(stderr) != want || len(stdout) != 0 {
		t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 1, stderr %q, no stdout", args, code, stderr, stdout, want)
	}
}

// flagDefaults runs bin -h and returns each flag it defines with its
// default value, spelled so that -name=value parses.
func flagDefaults(t *testing.T, bin string) map[string]string {
	t.Helper()
	_, usage, _ := run(t, bin, "-h")
	defs := map[string]string{}
	var name, typ string
	for _, line := range strings.Split(string(usage), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			// A zero default goes unprinted; a bool flag prints no type.
			name, typ, _ = strings.Cut(rest, " ")
			switch typ {
			case "":
				defs[name] = "false"
			case "string":
				defs[name] = ""
			default:
				defs[name] = "0"
			}
		} else if i := strings.LastIndex(line, " (default "); i >= 0 && strings.HasSuffix(line, ")") {
			v := line[i+len(" (default ") : len(line)-1]
			if typ != "string" {
				defs[name] = v
			} else if s, err := strconv.Unquote(v); err == nil {
				defs[name] = s
			}
		}
	}
	if len(defs) == 0 {
		t.Fatalf("%s -h listed no flags:\n%s", bin, usage)
	}
	return defs
}
