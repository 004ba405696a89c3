package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"strconv"

	"rocc/internal/core"
	"rocc/internal/fluid"
)

// fluidExp sweeps the §5.1 fluid model of the RoCC loop over flow counts
// and gain scalings, using the real quantized controller (internal/core)
// rather than its linearization. It prints a stability map — the
// complement of Figs. 5-7 computed nonlinearly — and, with -csv, writes
// the raw grid to fluid.csv. The (configuration × N) cells are
// independent fluid integrations on the -workers pool.
func fluidExp(fs *flag.FlagSet, _ string) func(*out) {
	workers, csvDir := bindWorkers(fs), bindCSV(fs)
	return func(o *out) {
		const (
			gbps = 40.0 // link bandwidth
			maxN = 256  // largest flow count swept
			tol  = 0.15 // convergence band around the Eq. 1 fixed point
		)
		o.printf("fluid stability sweep: B=%.0fG, tol=%.0f%%, auto-tune ON vs gains pinned at scale×(α̃, β̃)\n\n", gbps, tol*100)
		o.printf("%-22s", "configuration")
		var ns []int
		for n := 2; n <= maxN; n *= 2 {
			o.printf(" N=%-4d", n)
			ns = append(ns, n)
		}
		o.println()

		type cell struct {
			label string
			cfg   core.CPConfig
			n     int
		}
		var cells []cell
		addRow := func(label string, mutate func(*core.CPConfig)) {
			cfg := core.CPConfigForGbps(gbps)
			mutate(&cfg)
			for _, n := range ns {
				cells = append(cells, cell{label, cfg, n})
			}
		}
		addRow("auto-tuned", func(*core.CPConfig) {})
		for _, sc := range []float64{4, 2, 1, 0.5, 0.25} {
			addRow(fmt.Sprintf("pinned %.2gx", sc), func(c *core.CPConfig) {
				c.DisableAutoTune = true
				c.AlphaTilde *= sc
				c.BetaTilde *= sc
			})
		}

		vals := table(o, sweep{workers: workers}, 1, cells, nil,
			func(c cell) string { return fmt.Sprintf("fluid %s N=%d", c.label, c.n) },
			func(c cell) fluid.Result {
				return fluid.Run(fluid.Config{CP: c.cfg, N: c.n, LinkMbps: gbps * 1000, T: 40e-6, Steps: 6000})
			})

		var rows [][]string
		for i, c := range cells {
			if i%len(ns) == 0 {
				o.printf("%-22s", c.label)
			}
			row := []string{c.label, strconv.Itoa(c.n), "err", ""}
			mark := "err  "
			for _, r := range vals[i] {
				mark, row[2] = "ok   ", "1"
				if !r.Converged(tol) {
					mark, row[2] = "FAIL ", "0"
				}
				row[3] = strconv.FormatFloat(r.FinalRate(), 'g', 6, 64)
			}
			o.printf(" %s", mark)
			rows = append(rows, row)
			if i%len(ns) == len(ns)-1 {
				o.println()
			}
		}

		o.writeCSV(*csvDir, "fluid.csv", func(f io.Writer) error {
			w := csv.NewWriter(f)
			w.Write([]string{"config", "n", "converged", "final_rate_mbps"})
			return w.WriteAll(rows)
		})
	}
}
