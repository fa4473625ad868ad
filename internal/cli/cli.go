// Package cli is the front end the commands share: one flag set per
// command whose parse errors and exit codes behave like the flag
// package's, the -cpuprofile/-memprofile pair, the flags cmd/serve and
// cmd/cluster have in common with their one validation switch, one
// parser for every numeric comma list, and the one -json document
// shape. A command keeps only its own flags, its modes and a
// run(args, stdout) function that tests call with argument lists.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// errUsage marks a flag-parse failure, which the flag set has already
// reported together with its usage.
var errUsage = errors.New("usage")

// Main runs a command's run function on the process arguments and
// exits like the flag package does: 0 after -h, 2 after a flag-parse
// error, and 1 after any other error, printed with the command name.
func Main(name string, run func(args []string, stdout io.Writer) error) {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Command is one command's flag set. It records which flags were
// passed explicitly and, once Profiled registers them, runs the
// command under the -cpuprofile/-memprofile pair.
type Command struct {
	*flag.FlagSet
	passed                 map[string]bool
	cpuprofile, memprofile string
}

// NewCommand returns an empty flag set for the named command.
func NewCommand(name string) *Command {
	return &Command{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError), passed: map[string]bool{}}
}

// Profiled registers -cpuprofile and -memprofile.
func (c *Command) Profiled() *Command {
	c.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	c.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file")
	return c
}

// Passed reports whether the named flag was given explicitly, so a
// contradictory combination (-chunk without -sched chunked) or an
// explicit zero (-slo-ttft 0) errors instead of passing for the
// default.
func (c *Command) Passed(name string) bool { return c.passed[name] }

// Run parses args and runs body under the profiles. The CPU profile
// stops and the heap profile is written before Run returns, on error
// paths too, so they are complete when the caller exits.
func (c *Command) Run(args []string, body func() error) error {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	c.Visit(func(f *flag.Flag) { c.passed[f.Name] = true })
	stopCPU := func() {}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	err := body()
	stopCPU()
	if herr := writeHeap(c.memprofile); herr != nil {
		fmt.Fprintln(os.Stderr, c.Name()+":", herr)
	}
	return err
}

// writeHeap forces a GC and writes a heap profile to path; an empty
// path is a no-op.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// ParseList reads the comma-separated numeric list of the named flag.
// Blank entries are skipped; every entry must be positive (or zero,
// when zeroOK) and finite; an empty list is an error.
func ParseList[T int | int64 | float64](name, list string, zeroOK bool) ([]T, error) {
	var out []T
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(s)
		case *int64:
			*p, err = strconv.ParseInt(s, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(s, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("invalid %s entry %q: %v", name, s, err)
		}
		// ParseFloat reads "NaN" and "Inf": a NaN slips past a plain
		// sign check (every NaN comparison is false), and an infinite
		// rate or fault time would zero or stall the arrival process.
		if x := float64(v); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x == 0 && !zeroOK {
			want := "positive"
			if zeroOK {
				want = "non-negative"
			}
			if _, float := any(v).(float64); float {
				want += " and finite"
			}
			return nil, fmt.Errorf("%s entries must be %s, got %v", name, want, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list", name)
	}
	return out, nil
}
