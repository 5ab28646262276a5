// Package cliutil holds the output lifecycle the three CLIs share:
// validate, create, run, write.
//
// Each CLI parses its own flags, checks their combinations and reads its
// inputs, then hands its output paths to Run. Run checks the shared
// telemetry flags and probes -snapshot, and only then creates the output
// files, starts -pprof and builds the recorders; it runs the CLI's body
// and writes every output in one fixed order. A rejected invocation
// therefore creates, truncates and removes no file, and an unwritable
// path fails before the run starts.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers the -pprof handlers on the default mux
	"os"
	"path/filepath"

	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/protocol"
)

// Outputs are a CLI's output and telemetry flags as it parsed them. An
// empty path or address leaves that output off.
type Outputs struct {
	Metrics, Trace, TraceText, Flight, OpenMetrics string
	// Snapshot is replaced atomically at exit with the checkpoint of
	// Env.Overlay.
	Snapshot string
	// SLO and FlightInterval tune the -flight recorder.
	SLO            string
	FlightInterval int
	Pprof          string
	// Files are the CLI's own output files, created with the telemetry
	// files and written after them, in list order.
	Files []File
}

// File is one of a CLI's own output files: its flag, its path (empty
// leaves it off), and what writes it once the body has run.
type File struct {
	Flag, Path string
	Write      func(io.Writer) error
}

// Env is what a CLI's body runs with: the recorders its outputs asked for
// (nil when off), and the results it leaves for the output files.
type Env struct {
	Reg    *obs.Registry
	Trace  *trace.Recorder
	Flight *flight.Recorder

	// Overlay is the protocol session -snapshot checkpoints.
	Overlay *protocol.Overlay
}

// output is one file Run creates before the body runs and fills after it.
type output struct {
	flag, path string
	write      func(*Env, io.Writer) error
	f          *os.File
	created    bool // the path did not exist before Run opened it
}

// Run is the lifecycle. fs is the CLI's parsed flag set, which tells
// whether -flight-interval was given; body runs the CLI's work. After the
// body Run writes -snapshot, prints the flight report to stdout, and
// writes -metrics, -flight, -openmetrics, -trace, -trace-text and then
// the CLI's own Files, in that order. After a failed body the files are
// closed and left as created.
func Run(fs *flag.FlagSet, o Outputs, stdout io.Writer, body func(*Env) error) error {
	if o.Flight == "" {
		intervalSet := false
		fs.Visit(func(f *flag.Flag) { intervalSet = intervalSet || f.Name == "flight-interval" })
		if intervalSet {
			return errors.New("-flight-interval requires -flight")
		}
		if o.SLO != "" {
			return errors.New("-slo requires -flight")
		}
	}
	rules, err := flight.ParseSLORules(o.SLO)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}
	if o.Snapshot != "" {
		if err := probe(o.Snapshot); err != nil {
			return fmt.Errorf("-snapshot: %w", err)
		}
	}
	var ln net.Listener
	if o.Pprof != "" {
		if ln, err = net.Listen("tcp", o.Pprof); err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
	}
	outs := []*output{
		{flag: "metrics", path: o.Metrics, write: writeMetrics},
		{flag: "flight", path: o.Flight, write: func(env *Env, w io.Writer) error { return env.Flight.WriteJSONL(w) }},
		{flag: "openmetrics", path: o.OpenMetrics, write: writeOpenMetrics},
		{flag: "trace", path: o.Trace, write: func(env *Env, w io.Writer) error { return env.Trace.WriteChromeJSON(w) }},
		{flag: "trace-text", path: o.TraceText, write: func(env *Env, w io.Writer) error {
			_, err := io.WriteString(w, env.Trace.Text())
			return err
		}},
	}
	for _, f := range o.Files {
		outs = append(outs, &output{flag: f.Flag, path: f.Path, write: func(_ *Env, w io.Writer) error { return f.Write(w) }})
	}
	defer func() {
		for _, out := range outs {
			if out.f != nil {
				out.f.Close()
			}
		}
	}()
	if err := create(outs); err != nil {
		if ln != nil {
			ln.Close()
		}
		return err
	}
	if ln != nil {
		// The profiler serves for the rest of the process; it is for
		// interactive use, and nothing waits for it.
		go http.Serve(ln, nil)
	}

	env := &Env{}
	if o.Metrics != "" || o.Flight != "" || o.OpenMetrics != "" {
		env.Reg = obs.New()
	}
	if o.Trace != "" || o.TraceText != "" {
		env.Trace = trace.New(1 << 20)
		env.Trace.Observe(env.Reg)
	}
	if o.Flight != "" {
		env.Flight = flight.New(env.Reg, flight.Config{
			Interval: o.FlightInterval, Rules: rules, Trace: env.Trace,
		})
	}
	if err := body(env); err != nil {
		return err
	}

	if o.Snapshot != "" {
		if env.Overlay == nil {
			return errors.New("writing snapshot: no protocol session ran")
		}
		if err := env.Overlay.SnapshotToFile(o.Snapshot, 1); err != nil {
			return fmt.Errorf("writing snapshot: %w", err)
		}
	}
	if _, err := io.WriteString(stdout, env.Flight.Report()); err != nil {
		return err
	}
	for _, out := range outs {
		if out.f == nil {
			continue
		}
		err := out.write(env, out.f)
		if cerr := out.f.Close(); err == nil {
			err = cerr
		}
		out.f = nil
		if err != nil {
			return fmt.Errorf("writing -%s: %w", out.flag, err)
		}
	}
	return nil
}

// probe checks that path can be replaced the way the snapshot will be, by
// creating and removing a temporary file beside it.
func probe(path string) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return fmt.Errorf("%s is a directory", path)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp.Close()
	return os.Remove(tmp.Name())
}

// create opens every requested file without truncating it, so that an
// unwritable path among them leaves the others as they were (a file it had
// to create is removed again), and only then empties them all.
func create(outs []*output) error {
	for i, out := range outs {
		if out.path == "" {
			continue
		}
		_, statErr := os.Stat(out.path)
		f, err := os.OpenFile(out.path, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			for _, prev := range outs[:i] {
				if prev.f != nil {
					prev.f.Close()
					prev.f = nil
					if prev.created {
						os.Remove(prev.path)
					}
				}
			}
			return fmt.Errorf("-%s: %w", out.flag, err)
		}
		out.f, out.created = f, errors.Is(statErr, os.ErrNotExist)
	}
	for _, out := range outs {
		if out.f != nil {
			if err := out.f.Truncate(0); err != nil {
				return fmt.Errorf("-%s: %w", out.flag, err)
			}
		}
	}
	return nil
}

// writeMetrics dumps the registry's snapshot as one JSON document.
func writeMetrics(env *Env, w io.Writer) error {
	data, err := env.Reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// writeOpenMetrics renders the registry as OpenMetrics exposition text,
// with the flight recorder's last rates as extra gauge families when one
// is attached.
func writeOpenMetrics(env *Env, w io.Writer) error {
	if env.Flight != nil {
		return env.Flight.WriteOpenMetrics(w)
	}
	return flight.WriteOpenMetrics(w, env.Reg.Snapshot())
}
