package obs

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	// Behind the -pprof flag: registers the profiling handlers on the
	// default mux served below. Imported for side effects only.
	_ "net/http/pprof"
)

// CLIConfig carries the standard telemetry flags every command in this
// repository exposes: -metrics, -trace, and -pprof.
type CLIConfig struct {
	Metrics   string // Prometheus text destination file, "-" for stdout, "" off
	Trace     string // NDJSON event sink file, "" off
	PprofAddr string // net/http/pprof listen address, "" off
}

// RegisterFlags installs the three telemetry flags on fs.
func (c *CLIConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Metrics, "metrics", "", "write the metrics (Prometheus text) to this file on exit; '-' = stdout")
	fs.StringVar(&c.Trace, "trace", "", "append structured JSON trace events to this file")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Start enables process-wide telemetry according to the config: it
// builds a registry, attaches the trace sink, starts the pprof server,
// and calls Enable. The returned stop function writes the metrics
// exposition, closes the sink, and disables telemetry; it must run
// before process exit. When every field is empty telemetry stays
// disabled and stop is a cheap no-op.
func (c CLIConfig) Start() (stop func() error, err error) {
	if c.Metrics == "" && c.Trace == "" && c.PprofAddr == "" {
		return func() error { return nil }, nil
	}
	reg := NewRegistry()

	var traceFile *os.File
	if c.Trace != "" {
		traceFile, err = os.Create(c.Trace)
		if err != nil {
			return nil, fmt.Errorf("obs: trace sink: %w", err)
		}
		reg.SetSink(NewJSONSink(traceFile))
	}

	var ln net.Listener
	if c.PprofAddr != "" {
		ln, err = net.Listen("tcp", c.PprofAddr)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, fmt.Errorf("obs: pprof listener: %w", err)
		}
		srv := &http.Server{} // DefaultServeMux, where net/http/pprof registered
		go srv.Serve(ln)
	}

	Enable(reg)
	return func() error {
		Disable()
		var firstErr error
		if c.Metrics != "" {
			out := os.Stdout
			if c.Metrics != "-" {
				f, err := os.Create(c.Metrics)
				if err != nil {
					firstErr = err
				} else {
					out = f
					defer f.Close()
				}
			}
			if firstErr == nil {
				if err := reg.WritePrometheus(out); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if traceFile != nil {
			if err := traceFile.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if ln != nil {
			ln.Close()
		}
		return firstErr
	}, nil
}
