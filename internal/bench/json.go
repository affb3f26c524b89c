package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"mwllsc/internal/obs"
)

// Report is the machine-readable form of a benchmark run, written by
// `llscbench -json` and `llscload -json` (WriteReport) so runs can be
// archived and diffed.
type Report struct {
	// Tool identifies the producer ("llscbench" or "llscload").
	Tool string `json:"tool"`
	// GoVersion, GOMAXPROCS, NumCPU and Hostname pin down enough of the
	// environment to compare runs honestly: a run at GOMAXPROCS=1 is
	// invisible without this stamp, and its absolute numbers are not
	// comparable to parallel runs.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Hostname   string `json:"hostname,omitempty"`
	// Build is the producing binary's identity (obs.BuildInfo): module,
	// version, vcs revision and toolchain. "Which build produced these
	// numbers?" is the first question about any regression.
	Build string `json:"build,omitempty"`
	// Experiments holds one entry per table, in run order.
	Experiments []TableJSON `json:"experiments"`
}

// TableJSON is one experiment table in both layouts: the raw grid
// (cols/rows, lossless) and flat records (one object per row with cells
// keyed by column name, convenient for jq / dataframe loading).
type TableJSON struct {
	ID      string              `json:"id"`
	Title   string              `json:"title"`
	Note    string              `json:"note,omitempty"`
	Cols    []string            `json:"cols"`
	Rows    [][]string          `json:"rows"`
	Records []map[string]string `json:"records"`
}

// JSON converts the table to its machine-readable form.
func (t *Table) JSON() TableJSON {
	tj := TableJSON{
		ID:      t.ID,
		Title:   t.Title,
		Note:    t.Note,
		Cols:    t.Cols,
		Rows:    t.Rows,
		Records: make([]map[string]string, 0, len(t.Rows)),
	}
	for _, row := range t.Rows {
		rec := make(map[string]string, len(row)+1)
		if t.ID != "" {
			rec["experiment"] = t.ID
		}
		for i, cell := range row {
			if i < len(t.Cols) {
				rec[t.Cols[i]] = cell
			}
		}
		tj.Records = append(tj.Records, rec)
	}
	return tj
}

// newReport assembles tool's Report from finished tables, stamping the
// environment.
func newReport(tool string, tables []*Table) *Report {
	host, _ := os.Hostname() // best-effort; omitted from the JSON on error
	r := &Report{
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   host,
		Build:      obs.BuildInfo(),
	}
	for _, t := range tables {
		r.Experiments = append(r.Experiments, t.JSON())
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("writing JSON report: %w", err)
	}
	return nil
}

// WriteReport writes the tables as tool's JSON Report to the file at
// path, or to stdout when path is "-".
func WriteReport(path, tool string, tables []*Table, stdout io.Writer) error {
	r := newReport(tool, tables)
	if path == "-" {
		return r.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
