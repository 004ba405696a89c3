package experiments

import "rocc/internal/stats"

// FoldRow compares per-bin average FCT between a variant run and the
// lossless baseline (the "fold increase" annotations of Figs. 18 and 20).
type FoldRow struct {
	UpperBytes int
	Fold       float64 // variant avg FCT / lossless avg FCT
}

// FoldResult is one protocol's Fig. 18 / Fig. 20 outcome.
type FoldResult struct {
	Protocol   Protocol
	Rows       []FoldRow
	RetxShare  float64 // retransmitted bytes / delivered bytes (Fig. 20)
	BufferFold float64 // variant avg buffer / base avg buffer (Fig. 18)
}

// MakeFold pairs a lossless run with a variant run of the same
// configuration and seed into per-bin fold increases (Fig. 18: variant
// Unlimited; Fig. 20: variant Lossy). The protocol is read from base.
func MakeFold(base, variant FCTResult) FoldResult {
	res := FoldResult{Protocol: base.Config.Protocol}
	for i, b := range base.Bins {
		v := variant.Bins[i]
		row := FoldRow{UpperBytes: b.UpperBytes}
		if b.AvgMs > 0 && b.Count > 0 && v.Count > 0 {
			row.Fold = v.AvgMs / b.AvgMs
		}
		res.Rows = append(res.Rows, row)
	}
	if variant.TotalBytes > 0 {
		res.RetxShare = float64(variant.RetxBytes) / float64(variant.TotalBytes)
	}
	if base.AvgBufferKB > 0 {
		res.BufferFold = variant.AvgBufferKB / base.AvgBufferKB
	}
	return res
}

// MergeFolds averages the per-bin fold increase across repetitions and
// reports the Student-t 95% CI of the fold, plus the mean retransmit
// share and buffer fold. Repetitions with an empty bin on either side
// are excluded from that bin's average.
func MergeFolds(runs []FoldResult) (rows []FoldRow, ci []float64, retxShare, bufferFold float64) {
	if len(runs) == 0 {
		return nil, nil, 0, 0
	}
	nBins := len(runs[0].Rows)
	rows = make([]FoldRow, nBins)
	ci = make([]float64, nBins)
	for b := 0; b < nBins; b++ {
		var folds []float64
		for _, run := range runs {
			if f := run.Rows[b].Fold; f > 0 {
				folds = append(folds, f)
			}
		}
		rows[b] = FoldRow{UpperBytes: runs[0].Rows[b].UpperBytes, Fold: stats.Mean(folds)}
		ci[b] = stats.CI95(folds)
	}
	var retxs, bufs []float64
	for _, run := range runs {
		retxs = append(retxs, run.RetxShare)
		bufs = append(bufs, run.BufferFold)
	}
	return rows, ci, stats.Mean(retxs), stats.Mean(bufs)
}

// MergeBins averages per-bin statistics across repetitions and reports
// the Student-t 95% CI of the per-bin average FCT, as the paper's error
// bars do (stats.CI95 uses t(0.975, reps-1), not the normal z, for the
// paper's n=5 repetitions).
func MergeBins(runs [][]stats.BinStat) ([]stats.BinStat, []float64) {
	if len(runs) == 0 {
		return nil, nil
	}
	nBins := len(runs[0])
	merged := make([]stats.BinStat, nBins)
	ci := make([]float64, nBins)
	for b := 0; b < nBins; b++ {
		var avgs, p90s, p99s []float64
		count := 0
		for _, run := range runs {
			if run[b].Count == 0 {
				continue
			}
			count += run[b].Count
			avgs = append(avgs, run[b].AvgMs)
			p90s = append(p90s, run[b].P90Ms)
			p99s = append(p99s, run[b].P99Ms)
		}
		merged[b] = stats.BinStat{
			UpperBytes: runs[0][b].UpperBytes,
			Count:      count,
			AvgMs:      stats.Mean(avgs),
			P90Ms:      stats.Mean(p90s),
			P99Ms:      stats.Mean(p99s),
		}
		ci[b] = stats.CI95(avgs)
	}
	return merged, ci
}
