package ctrlplane

// LeaseTerms are the lease fields every grant and renewal carries: a
// seconds lease LeaseS (0: never lapses on seconds) and the protocol
// clock triple — the interval Iv the grant was minted in, the interval
// lease LeaseIv, and the nominal interval length IvS.
type LeaseTerms struct {
	LeaseS  float64
	Iv      uint64
	LeaseIv uint64
	IvS     float64
}

// Lease is a grantee's lease ledger: the (epoch, seq) fence, the lease
// in force, the protocol clock, and the lapse/safe-mode state. The
// replay agent, the psd daemon and the shard coordinator each keep one
// under the lock they already hold and do only their own I/O around
// it, so the three enforce one state machine.
//
// Time flows in only as the caller's now, in seconds on the grantee's
// lease clock: coordinator trace time for a replay agent and a shard,
// seconds since EnableCtrl for psd. Every method taking now first
// advances the ledger's clock high-water mark to it. Lease is not safe
// for concurrent use, and it never calls out of itself.
//
// The zero value has no grant, no lease and is not lapsed: a grantee
// that boots unfenced (psd, a shard at its bootstrap budget).
type Lease struct {
	epoch, seq uint64
	// start is the lease clock instant the in-force grant or its last
	// renewal landed; terms are that message's lease fields.
	start float64
	terms LeaseTerms
	// seenIv is the highest interval observed from any grant, renewal
	// or clocked scrape; seenT anchors it on the lease clock, so the
	// effective interval keeps counting at IvS when the grantor stalls.
	seenIv uint64
	seenT  float64
	localT float64
	// skewIv is the last measured grantor skew in intervals: locally
	// elapsed intervals minus minted intervals over the same span
	// (positive = the grantor runs slow).
	skewIv float64
	// lapsed: no live budget — the lease ran out (fenced, starved) or,
	// for a grantee booted fenced, none was granted yet. Only a fresh
	// grant clears it. safeMode is the flavor of lapsed that holds heldW
	// and decays it instead of cliffing; expireT is when the lease ran
	// out.
	lapsed   bool
	safeMode bool
	heldW    float64
	expireT  float64

	grants, lapses, safeEntries, staleDrops, epochDrops int
}

// Admit reports whether a grant at (epoch, seq) is strictly newer than
// the newest applied one. A refusal is counted: an older epoch is a
// deposed grantor's traffic, an equal epoch a duplicate or reordered
// retry. Admitting commits nothing — the caller applies the budget and
// then calls Grant, so a failed application does not consume the seq.
func (l *Lease) Admit(epoch, seq uint64) bool {
	if epoch < l.epoch {
		l.epochDrops++
		return false
	}
	if epoch == l.epoch && seq <= l.seq {
		l.staleDrops++
		return false
	}
	return true
}

// Grant records an applied grant at now: it becomes the fence
// high-water mark, starts the lease, and clears any lapse.
func (l *Lease) Grant(epoch, seq uint64, now float64, t LeaseTerms) {
	l.epoch, l.seq = epoch, seq
	l.start, l.terms = now, t
	l.observe(now, t.Iv, t.IvS)
	l.lapsed, l.safeMode = false, false
	l.grants++
}

// Renew extends the lease in force at now without changing the budget.
// An older epoch's renewal is counted and ignored; any other renewal is
// a protocol-clock observation. Only the epoch that granted the budget
// may extend it, a lapsed lease stays lapsed, and a renewal older than
// the lease start (delayed or duplicated) must not move it backward.
func (l *Lease) Renew(epoch uint64, now float64, t LeaseTerms) {
	if epoch < l.epoch {
		l.epochDrops++
		return
	}
	l.observe(now, t.Iv, t.IvS)
	if epoch == l.epoch && !l.lapsed && now >= l.start {
		l.start, l.terms = now, t
	}
}

// observe advances the lease clock to now and folds one observed
// grantor interval into the protocol clock: measure skew against the
// locally elapsed span (when ivS is known), then move the high-water
// mark. Zero or already-seen intervals only advance the clock.
func (l *Lease) observe(now float64, iv uint64, ivS float64) {
	if now > l.localT {
		l.localT = now
	}
	if iv == 0 || iv <= l.seenIv {
		return
	}
	if l.seenIv > 0 && ivS > 0 {
		l.skewIv = (l.localT-l.seenT)/ivS - float64(iv-l.seenIv)
	}
	l.seenIv = iv
	l.seenT = l.localT
}

// ClockMode reports whether the lease in force is an interval lease:
// the protocol clock then replaces seconds-based aging entirely.
func (l *Lease) ClockMode() bool { return l.terms.LeaseIv > 0 && l.terms.IvS > 0 }

// EffectiveIv is the protocol-clock reading at now: the highest
// observed interval, advanced by whole nominal intervals of lease
// clock elapsed since that observation. While the grantor mints on
// schedule the extrapolation stays at zero; when it stalls the reading
// keeps counting at IvS, which lapses the lease on time.
func (l *Lease) EffectiveIv(now float64) uint64 {
	l.observe(now, 0, 0)
	if l.terms.IvS <= 0 {
		return l.seenIv
	}
	dt := l.localT - l.seenT
	if dt <= 0 {
		return l.seenIv
	}
	return l.seenIv + uint64(dt/l.terms.IvS)
}

// boundaryIv is the interval at which an interval lease lapses.
func (l *Lease) boundaryIv() uint64 { return l.terms.Iv + l.terms.LeaseIv }

// expiry is the lease clock instant a seconds lease lapses.
func (l *Lease) expiry() float64 { return l.start + l.terms.LeaseS }

// Expired reports whether a live lease has run out at now: an interval
// lease once the effective interval reaches its boundary, a seconds
// lease once now reaches start+LeaseS. A lease already lapsed, or none
// at all, never expires. The caller then fences (Lapse) or holds
// (EnterSafeMode) once its own I/O is done.
func (l *Lease) Expired(now float64) bool {
	eff := l.EffectiveIv(now)
	if l.lapsed {
		return false
	}
	if l.ClockMode() {
		return eff >= l.boundaryIv()
	}
	return l.terms.LeaseS > 0 && now >= l.expiry()
}

// Lapse marks the lease lapsed: the grantee no longer holds a budget.
func (l *Lease) Lapse() {
	l.lapsed = true
	l.lapses++
}

// EnterSafeMode lapses the lease into safe mode holding heldW, the cap
// in force — the last cap a grantor granted, so the fleet-wide sum of
// held caps stays bounded by that grantor's cap. The decay clock starts
// at the expiry instant, not whenever the lapse was noticed.
func (l *Lease) EnterSafeMode(heldW float64) {
	l.Lapse()
	l.safeMode = true
	l.safeEntries++
	l.heldW = heldW
	l.expireT = l.expiry()
}

// SafeCap is the safe-mode target at now: the held cap through the
// hold window, then decaying per cfg. An interval lease ages by whole
// protocol intervals past its boundary, times the nominal interval
// length, so a trace-time and a wall-time grantee walking the same
// interval sequence reach bit-identical targets.
func (l *Lease) SafeCap(cfg SafeModeConfig, now float64) float64 {
	eff := l.EffectiveIv(now)
	if !l.ClockMode() {
		return cfg.CapAt(now, l.expireT, l.heldW)
	}
	var over uint64
	if b := l.boundaryIv(); eff > b {
		over = eff - b
	}
	return cfg.CapAt(float64(over)*l.terms.IvS, 0, l.heldW)
}

// ExpiresIn is the lease time left at now, clamped at 0 with expired
// set once it has run out (an interval lease counts the intervals left
// at the nominal length); 0 and false without a lease.
func (l *Lease) ExpiresIn(now float64) (remaining float64, expired bool) {
	l.observe(now, 0, 0)
	switch {
	case l.ClockMode():
		if b := l.boundaryIv(); b > l.seenIv {
			remaining = float64(b-l.seenIv)*l.terms.IvS - (now - l.seenT)
		}
		if remaining <= 0 {
			return 0, true
		}
		return remaining, false
	case l.terms.LeaseS > 0:
		if rem := now - l.expiry(); rem < 0 {
			return -rem, false
		}
		return 0, true
	}
	return 0, false
}

// ExpiresT is the lease clock instant a live seconds lease lapses (0
// when lapsed or non-lapsing) — a renewal answer's ExpiresT.
func (l *Lease) ExpiresT() float64 {
	if l.lapsed || l.terms.LeaseS <= 0 {
		return 0
	}
	return l.expiry()
}

// Epoch and Seq are the newest applied grant's fence pair.
func (l *Lease) Epoch() uint64 { return l.epoch }
func (l *Lease) Seq() uint64   { return l.seq }

// Iv is the highest protocol-clock interval observed (0 while
// clockless).
func (l *Lease) Iv() uint64 { return l.seenIv }

// SkewIv is the last measured grantor skew in intervals.
func (l *Lease) SkewIv() float64 { return l.skewIv }

// Leased reports whether the grant in force carries a lease at all.
func (l *Lease) Leased() bool { return l.terms.LeaseS > 0 || l.terms.LeaseIv > 0 }

// Lapsed reports whether the lease has lapsed (or, for a grantee booted
// fenced, none was granted yet); SafeMode whether that lapse holds and
// decays the last cap. Live reports a budget granted and not lapsed —
// the only state an online learner may probe under.
func (l *Lease) Lapsed() bool   { return l.lapsed }
func (l *Lease) SafeMode() bool { return l.safeMode }
func (l *Lease) Live() bool     { return !l.lapsed && l.grants > 0 }

// Counters for the local operator: applied grants, lapses (safe-mode
// entries included), safe-mode entries, and refused grants or
// renewals by cause.
func (l *Lease) Grants() int      { return l.grants }
func (l *Lease) Lapses() int      { return l.lapses }
func (l *Lease) SafeEntries() int { return l.safeEntries }
func (l *Lease) StaleDrops() int  { return l.staleDrops }
func (l *Lease) EpochDrops() int  { return l.epochDrops }
