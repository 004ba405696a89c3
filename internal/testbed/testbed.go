// Package testbed deploys the RoCC CP and RP algorithms over real UDP
// sockets on the loopback interface, standing in for the paper's DPDK
// evaluation (§6.2): a user-space software switch forwards client
// datagrams to a sink at a configured drain rate, runs the fair-rate
// timer over its real egress queue, and sends CNPs back to the clients
// on a control socket (the analog of the paper's ICMP type 253).
//
// Unlike the simulator, everything here runs in real time on the OS
// network stack: kernel scheduling jitter, socket buffering, and timer
// coarseness all perturb the control loop, which is exactly what the
// paper's DPDK experiment was designed to validate. Link speed is scaled
// down (a software switch cannot drain 10 Gb/s of 1 KB datagrams), with
// the CP parameters scaled per §5.2's bandwidth-delay guidance.
package testbed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rocc/internal/core"
	"rocc/internal/ringq"
)

// Message types on the wire.
const (
	msgData byte = 1
	msgCNP  byte = 2
)

// headerLen is flow id (4) + type (1) + padding (3).
const headerLen = 8

// Read-loop hardening parameters: every read carries a short deadline so
// the loop observes shutdown without the socket being closed under it,
// and transient errors (ICMP port-unreachable surfacing as ECONNREFUSED,
// EINTR, momentary buffer pressure) are retried with bounded backoff
// instead of killing the loop or spamming stderr.
const (
	readPoll       = 20 * time.Millisecond
	maxReadRetries = 8
	readBackoffMax = 100 * time.Millisecond
)

// pollRead reads one datagram under the deadline-polling regime. It
// returns ok=false when the caller should exit: done closed, socket
// closed, or the transient-error retry budget exhausted. Transient errors
// are counted in errCount, never logged.
func pollRead(conn *net.UDPConn, buf []byte, done <-chan struct{}, errCount *atomic.Int64) (n int, addr *net.UDPAddr, ok bool) {
	retries := 0
	backoff := time.Millisecond
	for {
		select {
		case <-done:
			return 0, nil, false
		default:
		}
		conn.SetReadDeadline(time.Now().Add(readPoll))
		n, addr, err := conn.ReadFromUDP(buf)
		if err == nil {
			return n, addr, true
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			// Deadline poll: the socket is healthy, there was just nothing
			// to read. Reset the transient-error budget.
			retries = 0
			backoff = time.Millisecond
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			return 0, nil, false
		}
		errCount.Add(1)
		if retries++; retries > maxReadRetries {
			return 0, nil, false
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > readBackoffMax {
			backoff = readBackoffMax
		}
	}
}

// Fixed run parameters. The CP thresholds (Config.CP) and T are sized
// for the default 400 Mb/s drain rate: T·C = 1.5 ms × 50 MB/s = 75 KB,
// which is Qref, so one update interval of full-rate arrivals fills the
// reference queue.
const (
	T             = 1500 * time.Microsecond // CP update interval
	Payload       = 1000                    // datagram payload, bytes
	RecoveryTimer = 6 * time.Millisecond    // RP fast-recovery interval
)

// Config parameterizes a testbed run.
type Config struct {
	// DrainRate is the software switch's egress bandwidth in bits/s.
	DrainRate float64
}

// DefaultConfig returns a laptop-friendly configuration: a 400 Mb/s
// software switch.
func DefaultConfig() Config { return Config{DrainRate: 400e6} }

// CP returns the Alg. 1 parameters: the paper's testbed queue thresholds
// (75/150/210 KB), ΔF scaled to software speeds, and Fmax (hence every
// client's Rmax) at the drain rate.
func (c Config) CP() core.CPConfig {
	cfg := core.CPConfig40G()
	cfg.DeltaFMbps = 1 // finer rate units at software speeds
	// The derivative gain is softened relative to the paper's switch
	// values: kernel scheduling makes arrivals bursty at the quantum
	// scale, and a full-strength β term rectifies that noise into a
	// downward rate bias (the queue cannot go below zero).
	cfg.BetaTilde = 0.5
	cfg.QrefBytes = 75 * 1000
	cfg.QmidBytes = 150 * 1000
	cfg.QmaxBytes = 210 * 1000
	cfg.FminMbps = 1
	cfg.FmaxMbps = c.DrainRate / 1e6
	return cfg
}

// Switch is the user-space software switch with one congestion point.
type Switch struct {
	cfg  Config
	conn *net.UDPConn
	sink *net.UDPConn // local socket of the sink receiver

	mu        sync.Mutex
	queue     ringq.Queue[[]byte]
	queueSize int
	flowSeen  map[uint32]time.Time
	flowAddr  map[uint32]*net.UDPAddr
	cp        *core.CP

	fairRate atomic.Int64 // milli-Mb/s for atomic reads
	qlen     atomic.Int64

	done       chan struct{}
	wg         sync.WaitGroup
	sinkExited atomic.Bool // set when sinkLoop returns (close-ordering regression check)

	// Counters.
	Forwarded  atomic.Int64
	CNPsSent   atomic.Int64
	ReadErrors atomic.Int64 // transient socket read errors survived
}

// NewSwitch starts a software switch listening on a loopback UDP port.
func NewSwitch(cfg Config) (*Switch, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("testbed: switch listen: %w", err)
	}
	conn.SetReadBuffer(4 << 20) // keep the fabric lossless under bursts
	sink, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("testbed: sink listen: %w", err)
	}
	sink.SetReadBuffer(4 << 20)
	s := &Switch{
		cfg:      cfg,
		conn:     conn,
		sink:     sink,
		flowSeen: make(map[uint32]time.Time),
		flowAddr: make(map[uint32]*net.UDPAddr),
		cp:       core.NewCP(cfg.CP()),
		done:     make(chan struct{}),
	}
	s.wg.Add(4)
	go s.receiveLoop()
	go s.drainLoop()
	go s.cpLoop()
	go s.sinkLoop()
	return s, nil
}

// Addr returns the switch's data address clients send to.
func (s *Switch) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// QueueBytes returns the current egress queue occupancy.
func (s *Switch) QueueBytes() int { return int(s.qlen.Load()) }

// FairRateMbps returns the CP's current fair rate.
func (s *Switch) FairRateMbps() float64 { return float64(s.fairRate.Load()) / 1000 }

// Close stops the switch: signal done, let every loop notice it at its
// next deadline poll, then close the sockets. The loops never see their
// socket closed while running, so shutdown produces no spurious errors.
func (s *Switch) Close() {
	close(s.done)
	s.wg.Wait()
	s.conn.Close()
	s.sink.Close()
}

// receiveLoop ingests client datagrams into the egress queue.
func (s *Switch) receiveLoop() {
	defer s.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, addr, ok := pollRead(s.conn, buf, s.done, &s.ReadErrors)
		if !ok {
			return
		}
		if n < headerLen || buf[4] != msgData {
			continue
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		flow := binary.BigEndian.Uint32(pkt[0:4])
		s.mu.Lock()
		s.queue.Push(pkt)
		s.queueSize += n
		s.flowAddr[flow] = addr
		s.flowSeen[flow] = time.Now()
		s.qlen.Store(int64(s.queueSize))
		s.mu.Unlock()
	}
}

// drainLoop forwards queued datagrams to the sink at the drain rate.
// Sub-millisecond sleeps overshoot badly on a stock kernel, so the loop
// runs a token bucket with sub-millisecond quanta: it forwards a
// quantum's worth of bytes back to back, then sleeps.
func (s *Switch) drainLoop() {
	defer s.wg.Done()
	sinkAddr := s.sink.LocalAddr().(*net.UDPAddr)
	const quantum = 250 * time.Microsecond
	credit := 0.0 // bytes
	last := time.Now()
	for {
		select {
		case <-s.done:
			return
		default:
		}
		now := time.Now()
		elapsed := now.Sub(last)
		last = now
		credit += float64(s.cfg.DrainRate / 8 * elapsed.Seconds())
		if max := s.cfg.DrainRate / 8 * 0.002; credit > max {
			credit = max // cap burst at 2 ms worth
		}
		for {
			s.mu.Lock()
			var pkt []byte
			if s.queue.Len() > 0 && credit >= float64(len(s.queue.Front())) {
				pkt = s.queue.Pop()
				s.queueSize -= len(pkt)
				s.qlen.Store(int64(s.queueSize))
			}
			s.mu.Unlock()
			if pkt == nil {
				break
			}
			credit -= float64(len(pkt))
			s.conn.WriteToUDP(pkt, sinkAddr)
			s.Forwarded.Add(1)
		}
		time.Sleep(quantum)
	}
}

// cpLoop runs Alg. 1 every T and sends CNPs to queued flows.
func (s *Switch) cpLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(T)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		q := s.queueSize
		rateUnits := s.cp.Update(q)
		s.fairRate.Store(int64(s.cp.FairRateMbps() * 1000))
		type dest struct {
			flow uint32
			addr *net.UDPAddr
		}
		var dests []dest
		// Recipients: every flow seen recently (a single-CP deployment
		// keeps sources pinned to the fair rate; the bounded/age-based
		// table of §3.4 option 2). Stale flows age out.
		cutoff := time.Now().Add(-5 * T)
		for flow, seen := range s.flowSeen {
			if seen.Before(cutoff) {
				delete(s.flowSeen, flow)
				delete(s.flowAddr, flow)
				continue
			}
			dests = append(dests, dest{flow, s.flowAddr[flow]})
		}
		s.mu.Unlock()
		for _, d := range dests {
			cnp := make([]byte, headerLen+4)
			binary.BigEndian.PutUint32(cnp[0:4], d.flow)
			cnp[4] = msgCNP
			binary.BigEndian.PutUint32(cnp[headerLen:], uint32(rateUnits))
			s.conn.WriteToUDP(cnp, d.addr)
			s.CNPsSent.Add(1)
		}
	}
}

// sinkLoop drains the sink socket (the destination host).
func (s *Switch) sinkLoop() {
	defer s.wg.Done()
	defer s.sinkExited.Store(true) // runs before wg.Done (LIFO)
	buf := make([]byte, 65536)
	for {
		if _, _, ok := pollRead(s.sink, buf, s.done, &s.ReadErrors); !ok {
			return
		}
	}
}

// Client is a traffic source with a RoCC reaction point.
type Client struct {
	flow    uint32
	conn    *net.UDPConn
	swAddr  *net.UDPAddr
	offered float64 // bits/s

	mu    sync.Mutex
	rp    *core.RP
	timer *time.Timer

	done chan struct{}
	wg   sync.WaitGroup

	SentBytes  atomic.Int64
	CNPsRecv   atomic.Int64
	ReadErrors atomic.Int64 // transient socket read errors survived
}

// NewClient starts a client sending flow `flow` at the offered rate
// (bits/s) toward the switch. Its RP takes ΔF and Rmax from the switch's
// CP configuration.
func NewClient(flow uint32, sw *Switch, offeredBps float64) (*Client, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("testbed: client listen: %w", err)
	}
	cp := sw.cp.Config()
	c := &Client{
		flow:    flow,
		conn:    conn,
		swAddr:  sw.Addr(),
		offered: offeredBps,
		rp: core.NewRP(core.RPConfig{
			DeltaFMbps: cp.DeltaFMbps,
			RmaxMbps:   cp.FmaxMbps,
			// The control socket is best-effort UDP, so staleness
			// handling stays on.
			StaleK: core.DefaultStaleK,
		}),
		done: make(chan struct{}),
	}
	c.wg.Add(2)
	go c.sendLoop()
	go c.cnpLoop()
	return c, nil
}

func (c *Client) currentRateLocked() float64 {
	rate := c.offered
	if c.rp.Installed() {
		if r := c.rp.RateMbps() * 1e6; r < rate {
			rate = r
		}
	}
	if rate < 1e6 {
		rate = 1e6
	}
	return rate
}

// Close stops the client (see Switch.Close for the ordering).
func (c *Client) Close() {
	close(c.done)
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.conn.Close()
}

// sendLoop paces data datagrams at min(offered, RP rate).
func (c *Client) sendLoop() {
	defer c.wg.Done()
	pkt := make([]byte, headerLen+Payload)
	binary.BigEndian.PutUint32(pkt[0:4], c.flow)
	pkt[4] = msgData
	// Token-bucket pacing with sub-millisecond quanta (see drainLoop).
	const quantum = 250 * time.Microsecond
	credit := 0.0
	last := time.Now()
	for {
		select {
		case <-c.done:
			return
		default:
		}
		now := time.Now()
		elapsed := now.Sub(last)
		last = now
		c.mu.Lock()
		rate := c.currentRateLocked()
		c.mu.Unlock()
		credit += float64(rate / 8 * elapsed.Seconds())
		if max := rate / 8 * 0.002; credit > max {
			credit = max
		}
		for credit >= float64(len(pkt)) {
			c.conn.WriteToUDP(pkt, c.swAddr)
			c.SentBytes.Add(int64(len(pkt)))
			credit -= float64(len(pkt))
		}
		time.Sleep(quantum)
	}
}

// cnpLoop processes CNPs through Alg. 2 with a real fast-recovery timer.
func (c *Client) cnpLoop() {
	defer c.wg.Done()
	buf := make([]byte, 2048)
	cpKey := core.CPKey{Node: 1, Port: 0}
	for {
		n, _, ok := pollRead(c.conn, buf, c.done, &c.ReadErrors)
		if !ok {
			return
		}
		if n < headerLen+4 || buf[4] != msgCNP {
			continue
		}
		rateUnits := int(binary.BigEndian.Uint32(buf[headerLen:]))
		c.CNPsRecv.Add(1)
		c.mu.Lock()
		if c.rp.ProcessCNP(rateUnits, cpKey) {
			c.resetTimerLocked()
		}
		c.mu.Unlock()
	}
}

func (c *Client) resetTimerLocked() {
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timer = time.AfterFunc(RecoveryTimer, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		select {
		case <-c.done:
			return
		default:
		}
		if !c.rp.TimerExpired() {
			c.resetTimerLocked()
		}
	})
}
