// Package cli holds the flag contract every command keeps: a flag given on
// the command line that the chosen mode does not read, or whose value is
// out of range, is refused by name, one stderr line each, before the
// command reads a file, opens a port or prints a line.
package cli

import (
	"flag"
	"fmt"
	"os"
	"slices"
)

// Mode is one way to run a command: the name a refusal gives it and the
// flags it reads, without their leading dash. A command lists its modes
// in precedence order in one package-level table.
type Mode struct {
	Name  string
	Reads []string
}

// Refuse visits the flags set on fs and prints, for each, one line to
// stderr: "<prog>: -<flag> does not apply with <mode>" when m does not read
// it, or "<prog>: -<flag> <reason>" when outOfRange returns a reason for
// it. It reports whether it refused any flag; the caller then exits with
// its bad-flag code.
func (m Mode) Refuse(fs *flag.FlagSet, prog string, outOfRange func(flag string) string) bool {
	refused := false
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(m.Reads, f.Name) {
			fmt.Fprintf(os.Stderr, "%s: -%s does not apply with %s\n", prog, f.Name, m.Name)
			refused = true
		} else if why := outOfRange(f.Name); why != "" {
			fmt.Fprintf(os.Stderr, "%s: -%s %s\n", prog, f.Name, why)
			refused = true
		}
	})
	return refused
}
