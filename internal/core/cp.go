package core

import "fmt"

// CPConfig holds the congestion-point parameters of Table 2 / §6.
// Queue quantities are in bytes and rates in Mb/s; the CP converts to ΔQ
// and ΔF units internally.
type CPConfig struct {
	DeltaQBytes int     // ΔQ: queue resolution in bytes (600 B in §6)
	DeltaFMbps  float64 // ΔF: rate resolution in Mb/s (10 Mb/s in §6)

	QrefBytes int // reference queue length
	QmidBytes int // queue-growth threshold for MD (F ← F/2)
	QmaxBytes int // queue-length threshold for MD (F ← Fmin)

	FminMbps float64 // minimum fair rate
	FmaxMbps float64 // maximum fair rate (the link bandwidth)

	AlphaTilde float64 // α̃: static PI proportional weight
	BetaTilde  float64 // β̃: static PI derivative weight

	// DisableMD turns off the multiplicative-decrease fast path
	// (ablation; the paper's design always enables it).
	DisableMD bool

	// DisableAutoTune pins α, β to α̃, β̃ (ablation for §5.3).
	DisableAutoTune bool

	// MaxLevel bounds the auto-tune quantization (64 in Alg. 1, giving
	// six α:β regions).
	MaxLevel int
}

// CPConfig40G returns the paper's §6 parameters for a 40 Gb/s egress link.
func CPConfig40G() CPConfig {
	return CPConfig{
		DeltaQBytes: 600,
		DeltaFMbps:  10,
		QrefBytes:   150 * 1000,
		QmidBytes:   300 * 1000,
		QmaxBytes:   360 * 1000,
		FminMbps:    100,   // Fmin = 10 units of ΔF
		FmaxMbps:    40000, // Fmax = 4000 units
		AlphaTilde:  0.3,
		BetaTilde:   1.5,
		MaxLevel:    64,
	}
}

// CPConfig100G returns the paper's §6 parameters for a 100 Gb/s egress link.
func CPConfig100G() CPConfig {
	return CPConfig{
		DeltaQBytes: 600,
		DeltaFMbps:  10,
		QrefBytes:   300 * 1000,
		QmidBytes:   600 * 1000,
		QmaxBytes:   660 * 1000,
		FminMbps:    100,
		FmaxMbps:    100000, // Fmax = 10000 units
		AlphaTilde:  0.45,
		BetaTilde:   2.25,
		MaxLevel:    64,
	}
}

// CPConfigForGbps derives a parameter set for an arbitrary link
// bandwidth, keeping the paper's 40G and 100G anchor points exact. Queue
// thresholds scale with the line rate (they approximate a bandwidth-delay
// budget, §5.2) but never below a packet-scale floor; the PI gains do
// not scale down — the open-loop gain K = κNα/T is independent of link
// capacity, and the paper's own anchors grow only mildly (0.3 → 0.45)
// from 40G to 100G.
func CPConfigForGbps(gbps float64) CPConfig {
	switch gbps {
	case 40:
		return CPConfig40G()
	case 100:
		return CPConfig100G()
	}
	scale := gbps / 40
	cfg := CPConfig40G()
	// Scale thresholds with line rate, but never below the paper's §6.2
	// 10 Gb/s testbed anchors (75/150/210 KB): tighter thresholds leave
	// the MD path too little headroom over PI overshoot, which §3.2
	// warns destabilizes the controller.
	scaleQ := func(q, floor int) int {
		s := int(float64(q) * scale)
		if s < floor {
			s = floor
		}
		return s
	}
	cfg.QrefBytes = scaleQ(cfg.QrefBytes, 75*1000)
	cfg.QmidBytes = scaleQ(cfg.QmidBytes, 150*1000)
	cfg.QmaxBytes = scaleQ(cfg.QmaxBytes, 210*1000)
	cfg.FmaxMbps = gbps * 1000
	if gbps > 40 {
		// Interpolate the paper's 40G → 100G gain growth.
		f := (gbps - 40) / 60
		cfg.AlphaTilde = 0.3 + float64(0.15*f)
		cfg.BetaTilde = 1.5 + float64(0.75*f)
	}
	return cfg
}

// Validate reports configuration errors, enforcing the §3.2 ordering
// Qmax > Qmid > Qref that prevents the MD path from destabilizing the PI.
func (c CPConfig) Validate() error {
	if c.DeltaQBytes <= 0 || c.DeltaFMbps <= 0 {
		return fmt.Errorf("core: ΔQ and ΔF must be positive")
	}
	if !(c.QmaxBytes > c.QmidBytes && c.QmidBytes > c.QrefBytes && c.QrefBytes > 0) {
		return fmt.Errorf("core: need Qmax > Qmid > Qref > 0, got %d/%d/%d",
			c.QmaxBytes, c.QmidBytes, c.QrefBytes)
	}
	if c.FminMbps <= 0 || c.FmaxMbps <= c.FminMbps {
		return fmt.Errorf("core: need Fmax > Fmin > 0, got %v/%v", c.FmaxMbps, c.FminMbps)
	}
	if c.AlphaTilde <= 0 || c.BetaTilde <= 0 {
		return fmt.Errorf("core: α̃ and β̃ must be positive")
	}
	if c.MaxLevel < 2 {
		return fmt.Errorf("core: MaxLevel must be at least 2")
	}
	return nil
}

// CP is the congestion-point fair-rate calculator (Alg. 1) for one egress
// queue. It is not safe for concurrent use; callers serialize Update.
type CP struct {
	cfg CPConfig

	// Quantized parameters (units of ΔQ and ΔF).
	qref, qmid, qmax float64
	fmin, fmax       float64

	f    float64 // current fair rate, ΔF units, fixed-point precision
	qold float64 // previous queue observation, ΔQ units
}

// NewCP returns a CP initialized with F = Fmax (no congestion yet).
// It panics if cfg is invalid; use cfg.Validate to check first.
func NewCP(cfg CPConfig) *CP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cp := &CP{
		cfg:  cfg,
		qref: float64(cfg.QrefBytes) / float64(cfg.DeltaQBytes),
		qmid: float64(cfg.QmidBytes) / float64(cfg.DeltaQBytes),
		qmax: float64(cfg.QmaxBytes) / float64(cfg.DeltaQBytes),
		fmin: cfg.FminMbps / cfg.DeltaFMbps,
		fmax: cfg.FmaxMbps / cfg.DeltaFMbps,
	}
	cp.f = cp.fmax
	return cp
}

// Config returns the CP's configuration.
func (cp *CP) Config() CPConfig { return cp.cfg }

// Update runs one iteration of Calculate_Fair_Rate (Alg. 1) with the
// current queue length in bytes, returning the fair rate in whole ΔF units
// as carried by the CNP.
func (cp *CP) Update(qcurBytes int) int {
	qcur := float64(qcurBytes) / float64(cp.cfg.DeltaQBytes)
	switch {
	case !cp.cfg.DisableMD && qcur >= cp.qmax && cp.f > cp.fmax/8:
		cp.f = cp.fmin // Line 3: queue overrun imminent
	case !cp.cfg.DisableMD && qcur-cp.qold >= cp.qmid && cp.f > cp.fmax/8:
		cp.f = cp.f / 2 // Line 5: sharp queue growth
	default:
		alpha, beta := cp.autoTune()
		cp.f = cp.f - float64(alpha*(qcur-cp.qref)) - float64(beta*(qcur-cp.qold)) // Line 8
	}
	if cp.f > cp.fmax {
		cp.f = cp.fmax
	}
	if cp.f < cp.fmin {
		cp.f = cp.fmin
	}
	cp.qold = qcur
	return cp.FairRateUnits()
}

// autoTune implements Auto_Tune (Alg. 1, lines 15-21): quantize the fair
// rate range into regions and scale α̃, β̃ down by the region's ratio.
func (cp *CP) autoTune() (alpha, beta float64) {
	if cp.cfg.DisableAutoTune {
		return cp.cfg.AlphaTilde, cp.cfg.BetaTilde
	}
	level := 2
	for cp.f < cp.fmax/float64(level) && level < cp.cfg.MaxLevel {
		level *= 2
	}
	ratio := float64(level / 2)
	return cp.cfg.AlphaTilde / ratio, cp.cfg.BetaTilde / ratio
}

// FairRateUnits returns the current fair rate rounded to whole ΔF units.
func (cp *CP) FairRateUnits() int {
	u := int(cp.f + 0.5)
	if u < 1 {
		u = 1
	}
	return u
}

// FairRateMbps returns the current (fixed-point) fair rate in Mb/s.
func (cp *CP) FairRateMbps() float64 { return cp.f * cp.cfg.DeltaFMbps }

// SetQoldUnits overrides the previous queue observation (in ΔQ units).
// The §3.6 host-computed replica synchronizes Qold from the CNP before
// each update, since it does not observe every CP interval.
func (cp *CP) SetQoldUnits(units int) { cp.qold = float64(units) }
