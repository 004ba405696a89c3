// Package export writes experiment outputs as CSV so the paper's figures
// can be regenerated with external plotting tools (gnuplot, matplotlib).
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"rocc/internal/stats"
	"rocc/internal/telemetry"
)

// Series writes one or more time series as CSV: a shared "t" column (the
// union is not merged — series must share sampling instants, as all
// Sampler-produced series do) followed by one column per series.
func Series(w io.Writer, series ...*stats.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("export: no series")
	}
	n := len(series[0].Points)
	for _, s := range series[1:] {
		if len(s.Points) != n {
			return fmt.Errorf("export: series %q has %d points, want %d (sample together)",
				s.Name, len(s.Points), n)
		}
	}
	cw := csv.NewWriter(w)
	header := []string{"t"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < n; i++ {
		row[0] = strconv.FormatFloat(series[0].Points[i].T, 'g', -1, 64)
		for j, s := range series {
			row[j+1] = strconv.FormatFloat(s.Points[i].V, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Metrics writes a telemetry registry snapshot as long-form CSV: one row
// per instrument with kind (counter/gauge/histogram) and, for
// histograms, the distribution summary columns filled in.
func Metrics(w io.Writer, snap telemetry.Snapshot) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "name", "value", "count", "min", "max", "mean", "p50", "p95", "p99"}); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range snap.Counters {
		if err := cw.Write([]string{"counter", c.Name, g(c.Value), "", "", "", "", "", "", ""}); err != nil {
			return err
		}
	}
	for _, gv := range snap.Gauges {
		if err := cw.Write([]string{"gauge", gv.Name, g(gv.Value), "", "", "", "", "", "", ""}); err != nil {
			return err
		}
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, h := range snap.Histograms {
		row := []string{"histogram", h.Name, u(h.Sum), u(h.Count),
			u(h.Min), u(h.Max), g(h.Mean), u(h.P50), u(h.P95), u(h.P99)}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bins writes per-size-bin FCT statistics (Figs. 14-16 rows) as CSV.
func Bins(w io.Writer, protocol string, bins []stats.BinStat) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"protocol", "bin_bytes", "count", "avg_ms", "p90_ms", "p99_ms"}); err != nil {
		return err
	}
	for _, b := range bins {
		err := cw.Write([]string{
			protocol,
			strconv.Itoa(b.UpperBytes),
			strconv.Itoa(b.Count),
			strconv.FormatFloat(b.AvgMs, 'g', -1, 64),
			strconv.FormatFloat(b.P90Ms, 'g', -1, 64),
			strconv.FormatFloat(b.P99Ms, 'g', -1, 64),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
