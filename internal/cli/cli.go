// Package cli factors the flag plumbing shared by every command in this
// repository: the deterministic -seed, the -telemetry stream, the profiling
// trio (-cpuprofile, -memprofile, -pprof), and the -version build-info
// stamp.
//
// Usage pattern:
//
//	c := cli.New(cli.WithSeed(1), cli.WithTelemetry(), cli.WithProfiling())
//	flag.String(...) // command-specific flags
//	c.Parse()        // flag.Parse + -version handling + profile/pprof startup
//	defer c.Close()  // stop profiles, flush telemetry, print the telemetry summary
//
// Every command gets -version for free; the other flags appear only when
// the corresponding option is passed.
package cli

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"mrcprm/internal/obs"
)

// Common holds the values of the shared flags after Parse.
type Common struct {
	// Seed is the master random seed (WithSeed).
	Seed uint64
	// TelemetryPath names the JSONL telemetry stream (WithTelemetry); open
	// it with Telemetry().
	TelemetryPath string
	// CPUProfile, MemProfile, PprofAddr are the profiling flags
	// (WithProfiling).
	CPUProfile string
	MemProfile string
	PprofAddr  string

	version bool
	cpuFile *os.File
	telFile *os.File
	telSink *obs.JSONLWriter
	tel     *obs.Telemetry
}

// Option registers one group of shared flags.
type Option func(*Common, *flag.FlagSet)

// WithSeed registers -seed with the given default.
func WithSeed(def uint64) Option {
	return func(c *Common, fs *flag.FlagSet) {
		fs.Uint64Var(&c.Seed, "seed", def, "random seed")
	}
}

// WithTelemetry registers -telemetry.
func WithTelemetry() Option {
	return func(c *Common, fs *flag.FlagSet) {
		fs.StringVar(&c.TelemetryPath, "telemetry", "",
			"stream telemetry events to this JSONL file (digest with obsreport)")
	}
}

// WithProfiling registers -cpuprofile, -memprofile, and -pprof.
func WithProfiling() Option {
	return func(c *Common, fs *flag.FlagSet) {
		fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
		fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	}
}

// New registers the selected shared flags (plus -version, always) on the
// default flag set.
func New(opts ...Option) *Common { return register(flag.CommandLine, opts...) }

func register(fs *flag.FlagSet, opts ...Option) *Common {
	c := &Common{}
	fs.BoolVar(&c.version, "version", false, "print version and build information, then exit")
	for _, o := range opts {
		o(c, fs)
	}
	return c
}

// Parse runs flag.Parse, handles -version, and starts the CPU profile and
// pprof server when requested. Fatal problems (unwritable profile path)
// exit the process.
func (c *Common) Parse() {
	flag.Parse()
	if c.version {
		fmt.Println(Version())
		os.Exit(0)
	}
	if c.PprofAddr != "" {
		addr := c.PprofAddr
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
		fmt.Printf("pprof      : http://%s/debug/pprof/\n", addr)
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		c.cpuFile = f
	}
}

// Telemetry lazily opens the -telemetry sink and returns the handle; it
// returns nil (the inert instance) when the flag was not set. Close flushes
// and reports the stream.
func (c *Common) Telemetry() *obs.Telemetry {
	if c.TelemetryPath == "" || c.tel != nil {
		return c.tel
	}
	f, err := os.Create(c.TelemetryPath)
	if err != nil {
		fatal(err)
	}
	c.telFile = f
	c.telSink = obs.NewJSONLWriter(f)
	c.tel = obs.New(c.telSink)
	return c.tel
}

// Close stops the CPU profile, writes the heap profile, and flushes the
// telemetry stream. Call it via defer after Parse.
func (c *Common) Close() {
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
		c.MemProfile = ""
	}
	if c.tel != nil {
		c.tel.Flush()
		if err := c.telFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Printf("telemetry  : %d events -> %s (digest with obsreport)\n",
				c.telSink.Count(), c.TelemetryPath)
		}
		c.tel = nil
	}
}

// Version renders the build-info stamp: module version plus the VCS
// revision and time when the binary was built from a checkout.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "mrcprm (no build info)"
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	var rev, dirty, when string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		case "vcs.time":
			when = s.Value
		}
	}
	out := fmt.Sprintf("mrcprm %s", ver)
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		out += fmt.Sprintf(" (%s%s", rev, dirty)
		if when != "" {
			out += " " + when
		}
		out += ")"
	}
	return out + " " + bi.GoVersion
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
