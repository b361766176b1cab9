// Command swpfctl is the sweep fabric's client: a cmd-per-verb CLI
// that talks to a swpfd coordinator (cmd/swpfd) over its HTTP API.
//
//	swpfctl submit  -workloads IS,CG -systems A53 -variants plain,auto [-wait]
//	swpfctl submit  -f specs.json            # one spec or a JSON array
//	swpfctl tune    -workloads IS -systems A53 [-strategy hillclimb] [-wait]
//	swpfctl status  [job-id] [-follow]
//	swpfctl results -id job-1 [-format csv] [-o out.csv]
//	swpfctl top     [-follow [-interval 2s]]
//	swpfctl doctor
//
// The coordinator address is resolved in documented precedence order —
// highest wins:
//
//  1. the verb's -addr flag
//  2. $SWPFCTL_ADDR
//  3. the "addr" field of the config file ($SWPFCTL_CONFIG if set,
//     else $XDG_CONFIG_HOME/swpfctl/config.json, else
//     ~/.config/swpfctl/config.json)
//  4. the default, http://127.0.0.1:8077
//
// `swpfctl doctor` prints which layer won, then probes the daemon.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/sweep"
	"repro/internal/tune"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // usage already printed; exit 0
	default:
		fmt.Fprintln(os.Stderr, "swpfctl:", err)
		os.Exit(1)
	}
}

const defaultAddr = "http://127.0.0.1:8077"

// Environment variables the client consults.
const (
	addrEnvVar   = "SWPFCTL_ADDR"
	configEnvVar = "SWPFCTL_CONFIG"
)

// fileConfig is the config-file schema.
type fileConfig struct {
	Addr string `json:"addr"`
}

// configPath resolves the config-file location: $SWPFCTL_CONFIG wins,
// then $XDG_CONFIG_HOME/swpfctl/config.json, then
// ~/.config/swpfctl/config.json; "" when no home is resolvable.
func configPath() string {
	if p := os.Getenv(configEnvVar); p != "" {
		return p
	}
	dir := os.Getenv("XDG_CONFIG_HOME")
	if dir == "" {
		home, err := os.UserHomeDir()
		if err != nil {
			return ""
		}
		dir = filepath.Join(home, ".config")
	}
	return filepath.Join(dir, "swpfctl", "config.json")
}

// resolveAddr applies the precedence chain (flag > env > config file >
// default) and reports which layer won — doctor prints the source, and
// the precedence test pins it.
func resolveAddr(flagAddr string) (addr, source string) {
	if flagAddr != "" {
		return strings.TrimRight(flagAddr, "/"), "flag"
	}
	if env := os.Getenv(addrEnvVar); env != "" {
		return strings.TrimRight(env, "/"), "env $" + addrEnvVar
	}
	if path := configPath(); path != "" {
		if data, err := os.ReadFile(path); err == nil {
			var fc fileConfig
			if json.Unmarshal(data, &fc) == nil && fc.Addr != "" {
				return strings.TrimRight(fc.Addr, "/"), "config " + path
			}
		}
	}
	return defaultAddr, "default"
}

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, `usage: swpfctl <command> [flags]

commands:
  submit   submit a sweep spec (axis flags, -f file, or -spec JSON)
  tune     search (c, depth, hoist, hwpf) for the best speedup
  status   list jobs, or show one job (optionally -follow its progress)
  results  fetch a completed job's result set
  top      fleet dashboard rendered from the coordinator's /metrics
  doctor   check configuration and coordinator health

Run 'swpfctl <command> -h' for per-command flags. The coordinator
address comes from -addr, $SWPFCTL_ADDR, the config file, or the
default `+defaultAddr+` — in that order.
`)
}

func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) == 0 {
		usage(stderr)
		return fmt.Errorf("missing command (have submit, tune, status, results, top, doctor)")
	}
	cmd, rest := argv[0], argv[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(rest, stdout, stderr)
	case "tune":
		return cmdTune(rest, stdout, stderr)
	case "status":
		return cmdStatus(rest, stdout, stderr)
	case "results":
		return cmdResults(rest, stdout, stderr)
	case "top":
		return cmdTop(rest, stdout, stderr)
	case "doctor":
		return cmdDoctor(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	default:
		usage(stderr)
		return fmt.Errorf("unknown command %q (have submit, tune, status, results, top, doctor)", cmd)
	}
}

// apiError decodes the daemon's {"error": ...} envelope into a Go
// error carrying the HTTP status.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
}

// getJSON fetches one JSON document.
func getJSON(addr, path string, out any) error {
	resp, err := http.Get(addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobStatus mirrors swpfd's JobStatus — the fields the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
	Error string `json:"error,omitempty"`
}

// submitReply mirrors swpfd's POST /sweep reply.
type submitReply struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
}

// cmdSubmit builds a spec from flags (or takes one verbatim via -f /
// -spec, either a single object or a JSON array) and POSTs it. With
// -wait it then follows each job's event stream to completion and
// fails if any job fails.
func cmdSubmit(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag = fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
		file     = fs.String("f", "", "read the spec (object or array) from this file, '-' for stdin")
		raw      = fs.String("spec", "", "spec JSON passed through verbatim")

		workloads = fs.String("workloads", "", "comma-separated workload names (empty = all)")
		systems   = fs.String("systems", "", "comma-separated machine names (empty = all)")
		variants  = fs.String("variants", "", "comma-separated variants (empty = all)")
		hwpfAxis  = fs.String("hwpf", "", "comma-separated hardware-prefetcher models (empty = default)")
		coreAxis  = fs.String("core", "", "comma-separated core models among default,interval,ooo,inorder (empty = default)")
		exec      = fs.String("exec", "", "comma-separated execution modes among direct,replay (empty = direct)")
		c         = fs.Int64("c", 0, "prefetch look-ahead constant (0 = per-variant default)")
		depth     = fs.Int("depth", 0, "indirect prefetch depth (0 = default)")
		hoist     = fs.Bool("hoist", false, "hoist loop-invariant prefetch address parts")
		quality   = fs.String("quality", "", "workload pool: full, quick, tiny, gen (empty = full)")
		priority  = fs.Int("priority", 0, "queue priority (higher leases first)")
		wait      = fs.Bool("wait", false, "follow the submitted jobs' progress and exit when all complete")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("submit takes no positional arguments (got %q)", fs.Arg(0))
	}
	// The flags fill the shared grid spec of internal/sweep — the same
	// struct the daemon decodes and validates, so the client cannot
	// drift from the server's spec schema.
	body, err := specBody(*file, *raw, sweep.Spec{
		Workloads: *workloads,
		Systems:   *systems,
		Variants:  *variants,
		HWPF:      *hwpfAxis,
		Core:      *coreAxis,
		Exec:      *exec,
		C:         *c,
		Depth:     *depth,
		Hoist:     *hoist,
		Quality:   *quality,
		Priority:  *priority,
	})
	if err != nil {
		return err
	}

	addr, _ := resolveAddr(*addrFlag)
	resp, err := http.Post(addr+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			err := apiError(resp)
			return fmt.Errorf("%w (retry after %ss)", err, ra)
		}
	}
	if resp.StatusCode != http.StatusAccepted {
		return apiError(resp)
	}
	reply, _ := io.ReadAll(resp.Body)
	var jobs []submitReply
	var one submitReply
	if err := json.Unmarshal(reply, &jobs); err != nil {
		if err := json.Unmarshal(reply, &one); err != nil {
			return fmt.Errorf("unexpected submit reply: %s", reply)
		}
		jobs = []submitReply{one}
	}
	for _, j := range jobs {
		fmt.Fprintf(stdout, "%s\t%d cells\n", j.ID, j.Cells)
	}
	if !*wait {
		return nil
	}
	for _, j := range jobs {
		final, err := follow(addr, j.ID, stderr)
		if err != nil {
			return err
		}
		if final.State != "done" {
			return fmt.Errorf("job %s %s: %s", j.ID, final.State, final.Error)
		}
	}
	return nil
}

// specBody returns a submission's request body: the -f file ('-' for
// stdin) or the -spec JSON verbatim, else the spec the axis flags
// built.
func specBody(file, raw string, fromFlags any) ([]byte, error) {
	switch {
	case file != "" && raw != "":
		return nil, fmt.Errorf("-f and -spec are mutually exclusive")
	case file == "-":
		body, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("reading stdin: %w", err)
		}
		return body, nil
	case file != "":
		return os.ReadFile(file)
	case raw != "":
		return []byte(raw), nil
	}
	return json.Marshal(fromFlags)
}

// tuneReply mirrors swpfd's POST /tune reply.
type tuneReply struct {
	ID string `json:"id"`
}

// cmdTune builds a tune spec from flags (or takes one verbatim via -f /
// -spec) and POSTs it to /tune. With -wait it follows the search's
// progress and then fetches the report — the same bytes
// `swpfbench -tune` emits for the same spec.
func cmdTune(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag = fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
		file     = fs.String("f", "", "read the tune spec from this file, '-' for stdin")
		raw      = fs.String("spec", "", "tune spec JSON passed through verbatim")

		workloads = fs.String("workloads", "", "comma-separated workload names (empty = all)")
		systems   = fs.String("systems", "", "comma-separated machine names (empty = all)")
		variant   = fs.String("variant", "", "the single variant to tune (empty = auto)")
		hwpfAxis  = fs.String("hwpf", "", "comma-separated hardware-prefetcher models to search (empty = default)")
		coreAxis  = fs.String("core", "", "comma-separated core models to search (empty = default)")
		strategy  = fs.String("strategy", "", "search strategy: exhaustive or hillclimb (empty = exhaustive)")
		cs        = fs.String("cs", "", "comma-separated look-ahead ladder (empty = default ladder)")
		depths    = fs.String("depths", "", "comma-separated indirect depths to search (empty = 0)")
		hoists    = fs.String("hoists", "", "comma-separated hoist settings among false,true (empty = false)")
		quality   = fs.String("quality", "", "workload pool: full, quick, tiny (empty = full)")
		priority  = fs.Int("priority", 0, "queue priority (higher leases first)")
		wait      = fs.Bool("wait", false, "follow the search's progress, then fetch the report")
		format    = fs.String("format", "json", "report format with -wait: json or csv")
		out       = fs.String("o", "", "write the report to this file instead of stdout (with -wait)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("tune takes no positional arguments (got %q)", fs.Arg(0))
	}
	switch *format {
	case "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (have json, csv)", *format)
	}

	// The flags fill the shared tune spec of internal/tune — the struct
	// the daemon and swpfbench -tune decode and validate.
	spec := tune.Spec{
		Strategy: *strategy,
		Cs:       *cs,
		Depths:   *depths,
		Hoists:   *hoists,
	}
	spec.Workloads = *workloads
	spec.Systems = *systems
	spec.Variants = *variant
	spec.HWPF = *hwpfAxis
	spec.Core = *coreAxis
	spec.Quality = *quality
	spec.Priority = *priority
	body, err := specBody(*file, *raw, spec)
	if err != nil {
		return err
	}

	addr, _ := resolveAddr(*addrFlag)
	resp, err := http.Post(addr+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return apiError(resp)
	}
	var reply tuneReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return fmt.Errorf("unexpected tune reply: %w", err)
	}
	fmt.Fprintf(stdout, "%s\n", reply.ID)
	if !*wait {
		return nil
	}
	final, err := follow(addr, reply.ID, stderr)
	if err != nil {
		return err
	}
	if final.State != "done" {
		return fmt.Errorf("job %s %s: %s", reply.ID, final.State, final.Error)
	}
	return fetchResults(addr, reply.ID, *format, *out, stdout)
}

// event mirrors swpfd's SSE payload.
type event struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	State string `json:"state"`
}

// follow streams a job's SSE events, echoing progress to w, and
// returns the job's terminal status.
func follow(addr, id string, w io.Writer) (jobStatus, error) {
	resp, err := http.Get(addr + "/jobs/" + id + "/events")
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	var last event
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			return jobStatus{}, fmt.Errorf("bad event %q: %w", line, err)
		}
		seen = true
		fmt.Fprintf(w, "%s\t%d/%d\t%s\n", id, last.Done, last.Total, last.State)
		if last.State != "running" {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return jobStatus{}, err
	}
	if !seen || last.State == "running" {
		return jobStatus{}, fmt.Errorf("event stream for %s ended before the job finished", id)
	}
	var final jobStatus
	if err := getJSON(addr, "/jobs/"+id, &final); err != nil {
		return jobStatus{}, err
	}
	return final, nil
}

// cmdStatus lists all jobs, or one job by id; -follow streams one
// job's progress to completion.
func cmdStatus(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag = fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
		followIt = fs.Bool("follow", false, "stream the job's progress until it completes (requires a job id)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	addr, _ := resolveAddr(*addrFlag)
	switch fs.NArg() {
	case 0:
		if *followIt {
			return fmt.Errorf("-follow requires a job id")
		}
		var jobs []jobStatus
		if err := getJSON(addr, "/jobs", &jobs); err != nil {
			return err
		}
		for _, j := range jobs {
			printStatus(stdout, j)
		}
		return nil
	case 1:
		id := fs.Arg(0)
		if *followIt {
			final, err := follow(addr, id, stdout)
			if err != nil {
				return err
			}
			printStatus(stdout, final)
			return nil
		}
		var j jobStatus
		if err := getJSON(addr, "/jobs/"+id, &j); err != nil {
			return err
		}
		printStatus(stdout, j)
		return nil
	default:
		return fmt.Errorf("status takes at most one job id")
	}
}

func printStatus(w io.Writer, j jobStatus) {
	line := fmt.Sprintf("%s\t%s\t%d/%d", j.ID, j.State, j.Done, j.Total)
	if j.Error != "" {
		line += "\t" + j.Error
	}
	fmt.Fprintln(w, line)
}

// cmdResults fetches a completed job's result set.
func cmdResults(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl results", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addrFlag = fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
		id       = fs.String("id", "", "job id (required)")
		format   = fs.String("format", "json", "output format: json or csv")
		out      = fs.String("o", "", "write to this file instead of stdout")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("results requires -id")
	}
	switch *format {
	case "json", "csv":
	default:
		return fmt.Errorf("unknown format %q (have json, csv)", *format)
	}
	addr, _ := resolveAddr(*addrFlag)
	return fetchResults(addr, *id, *format, *out, stdout)
}

// fetchResults GETs a job's results and writes them to the -o file, or
// stdout when none is given.
func fetchResults(addr, id, format, out string, stdout io.Writer) error {
	resp, err := http.Get(addr + "/results?id=" + id + "&format=" + format)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	dst := io.Writer(stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if _, err := io.Copy(dst, resp.Body); err != nil {
		return err
	}
	return nil
}

// cmdDoctor reports the resolved configuration (and which precedence
// layer produced it), then probes the coordinator: /meta for liveness,
// /fleet for queue, worker and store health.
func cmdDoctor(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swpfctl doctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", "", "coordinator URL (default $SWPFCTL_ADDR, config file, or "+defaultAddr+")")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	addr, source := resolveAddr(*addrFlag)
	fmt.Fprintf(stdout, "coordinator:\t%s (from %s)\n", addr, source)
	if p := configPath(); p != "" {
		if _, err := os.Stat(p); err == nil {
			fmt.Fprintf(stdout, "config file:\t%s\n", p)
		} else {
			fmt.Fprintf(stdout, "config file:\t%s (absent)\n", p)
		}
	}

	var meta struct {
		Qualities []string `json:"qualities"`
		Systems   []any    `json:"systems"`
	}
	if err := getJSON(addr, "/meta?quality=tiny", &meta); err != nil {
		fmt.Fprintf(stdout, "daemon:\tunreachable\n")
		return fmt.Errorf("coordinator %s: %w", addr, err)
	}
	fmt.Fprintf(stdout, "daemon:\tok (%d qualities, %d systems)\n", len(meta.Qualities), len(meta.Systems))

	var fleet struct {
		Queue struct {
			Pending    int   `json:"pending"`
			Leased     int   `json:"leased"`
			Completed  int64 `json:"completed"`
			Requeued   int64 `json:"requeued"`
			MaxPending int   `json:"max_pending"`
			Workers    []struct {
				Name string `json:"name"`
			} `json:"workers"`
		} `json:"queue"`
		Store *struct {
			Hits, Misses, Puts int64
		} `json:"store"`
	}
	if err := getJSON(addr, "/fleet", &fleet); err != nil {
		return fmt.Errorf("coordinator %s: %w", addr, err)
	}
	fmt.Fprintf(stdout, "queue:\t%d pending, %d leased, %d completed (cap %d)\n",
		fleet.Queue.Pending, fleet.Queue.Leased, fleet.Queue.Completed, fleet.Queue.MaxPending)
	names := make([]string, 0, len(fleet.Queue.Workers))
	for _, w := range fleet.Queue.Workers {
		names = append(names, w.Name)
	}
	fmt.Fprintf(stdout, "workers:\t%d (%s)\n", len(names), strings.Join(names, ", "))
	switch {
	case fleet.Store == nil:
		fmt.Fprintf(stdout, "store:\tnone attached\n")
	default:
		fmt.Fprintf(stdout, "store:\t%d hits, %d misses, %d puts\n", fleet.Store.Hits, fleet.Store.Misses, fleet.Store.Puts)
	}

	// Anomaly checks: each prints one "warning:" line; none is fatal —
	// doctor diagnoses, the operator decides.
	if fleet.Queue.Requeued > 0 {
		fmt.Fprintf(stdout, "warning:\t%d cells requeued by lease expiry — workers dying or lease TTL too short\n",
			fleet.Queue.Requeued)
	}
	if cap := fleet.Queue.MaxPending; cap > 0 {
		if live := fleet.Queue.Pending + fleet.Queue.Leased; live*10 >= cap*9 {
			fmt.Fprintf(stdout, "warning:\tqueue near capacity (%d/%d live cells) — submissions will soon see 429\n",
				live, cap)
		}
	}
	return nil
}
