package plan

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// Row is one cell's measurements plus full provenance — one JSON line
// of the append-only result file. Every field is deterministic for a
// given plan file, seed, host and commit: wall-clock timings are
// deliberately absent, which is what lets CI cmp two sweeps
// byte-for-byte.
type Row struct {
	Plan string `json:"plan"`
	Key  string `json:"key"`
	Hash string `json:"hash"`

	Scenario string `json:"scenario"`
	Platform string `json:"platform"`
	Scheme   string `json:"scheme"`
	Learner  string `json:"learner,omitempty"`
	Seed     int64  `json:"seed"`

	SimS         float64 `json:"sim_s"`
	EnergyJ      float64 `json:"energy_j"`
	AvgPowerW    float64 `json:"avg_power_w"`
	PeakPowerW   float64 `json:"peak_power_w"`
	PeakTempBigC float64 `json:"peak_temp_big_c"`
	PeakTempDevC float64 `json:"peak_temp_dev_c"`
	ActiveFPS    float64 `json:"active_fps"`
	DropRatePct  float64 `json:"drop_rate_pct"`

	// Git and Host document where the row was produced; they are stable
	// within one host+commit, so determinism cmp's still hold.
	Git  string `json:"git"`
	Host string `json:"host"`
}

// ReadRows parses a result file (every line one Row). A missing file
// is an error wrapping fs.ErrNotExist: analyzing a typoed path must
// fail, not report zero rows (Run treats it as an empty sweep). A
// malformed line is an error: a corrupted result store must fail the
// sweep loudly, not silently re-run cells.
func ReadRows(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	defer f.Close()
	var rows []Row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var r Row
		if err := json.Unmarshal([]byte(text), &r); err != nil {
			return nil, fmt.Errorf("plan: %s:%d: %w", path, line, err)
		}
		if r.Hash == "" {
			return nil, fmt.Errorf("plan: %s:%d: row missing config hash", path, line)
		}
		rows = append(rows, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("plan: %s: %w", path, err)
	}
	return rows, nil
}

// appendRows appends rows to the result file as JSONL, creating it if
// needed. Rows are flushed in order; the file is append-only by
// contract (resume reads it back and skips completed hashes).
func appendRows(path string, rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range rows {
		data, err := json.Marshal(r)
		if err != nil {
			f.Close()
			return fmt.Errorf("plan: %w", err)
		}
		w.Write(data)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("plan: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	return nil
}

// Provenance describes where rows are produced: the git commit (via
// `git describe --always --dirty`, "unknown" when git or the repo is
// unavailable) and the hostname. Both are stable across consecutive
// runs on one checkout, so they never break the determinism cmp.
type Provenance struct {
	Git  string
	Host string
}

// detectProvenance shells out once per sweep; failures degrade to
// "unknown" rather than failing the run.
func detectProvenance() Provenance {
	p := Provenance{Git: "unknown", Host: "unknown"}
	if host, err := os.Hostname(); err == nil && host != "" {
		p.Host = host
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err == nil {
		if desc := strings.TrimSpace(string(out)); desc != "" {
			p.Git = desc
		}
	}
	return p
}
