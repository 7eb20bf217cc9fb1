package scenario

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/yamlsub"
)

// This file is the file format's schema: the scalar kinds, and one table
// per section naming each key once. Parse (decodeFields) and EmitYAML
// (emitFields) both walk the tables, so a key cannot be read and not
// written, and event parameters (actions.go) are typed by the same kinds.

// kind is the type of a scalar: how it is spelled, which values are legal,
// and the one complaint an illegal spelling gets.
type kind uint8

const (
	text        kind = iota
	boolean          // true / false, as strconv.ParseBool reads them
	integer          // any whole number
	posInt           // ≥ 1
	nonNegInt        // ≥ 0
	duration         // a Go duration ≥ 0
	posDuration      // a Go duration > 0
	posNumber        // a number > 0
	gbps             // a number > 0 of Gbit/s, held as bit/s
	factor           // a number ≥ 1
	prob             // a number in [0, 1)
	fidelity         // packet, flow or hybrid
	tenant           // the name of a fleet tenant
)

// complaints says what is wrong with a spelling (%q) of each kind; any
// spelling is text.
var complaints = [...]string{
	boolean:     "not a boolean: %q",
	integer:     "not an integer: %q",
	posInt:      "must be a positive integer, got %q",
	nonNegInt:   "must be a non-negative integer, got %q",
	duration:    "not a duration: %q",
	posDuration: "must be a positive duration, got %q",
	posNumber:   "must be a positive number, got %q",
	gbps:        "must be a positive number, got %q",
	factor:      "must be a number ≥ 1, got %q",
	prob:        "must be in [0, 1), got %q",
	fidelity:    "unknown fidelity %q (want packet, flow or hybrid)",
	tenant:      "unknown tenant %q",
}

// val is a parsed scalar: whole kinds read n (a duration in nanoseconds, a
// boolean as 0/1), fractional kinds f, and text kinds s.
type val struct {
	s string
	n int64
	f float64
}

// parse reads s as a scalar of kind k; ok is false when s is not one. A
// tenant is any text here: whether the fleet has it is the scenario's to
// say (CheckEvent).
func (k kind) parse(s string) (v val, ok bool) {
	v.s = s
	var err error
	switch k {
	case boolean:
		var b bool
		if b, err = strconv.ParseBool(s); b {
			v.n = 1
		}
	case integer, posInt, nonNegInt:
		v.n, err = strconv.ParseInt(s, 10, 64)
	case duration, posDuration:
		var d time.Duration
		d, err = time.ParseDuration(s)
		v.n = int64(d)
	case posNumber, gbps, factor, prob:
		v.f, err = strconv.ParseFloat(s, 64)
	case fidelity:
		_, err = fabric.ParseFidelity(s)
	}
	if err != nil {
		return v, false
	}
	switch k {
	case posInt:
		ok = v.n >= 1
	case nonNegInt, duration:
		ok = v.n >= 0
	case posDuration:
		ok = v.n > 0
	case posNumber:
		ok = v.f > 0
	case gbps:
		ok = v.f > 0
		v.f *= 1e9
	case factor:
		ok = v.f >= 1
	case prob:
		ok = v.f >= 0 && v.f < 1
	default:
		ok = true
	}
	return v, ok
}

// store writes v through a pointer to a scenario field; false means the
// value does not fit the field (a VNI above 2³²−1).
func store(ptr any, v val) bool {
	switch p := ptr.(type) {
	case *string:
		*p = v.s
	case *bool:
		*p = v.n != 0
	case *int:
		*p = int(v.n)
		return int64(*p) == v.n
	case *int64:
		*p = v.n
	case *fabric.VNI:
		*p = fabric.VNI(v.n)
		return int64(*p) == v.n
	case *time.Duration:
		*p = time.Duration(v.n)
	case *float64:
		*p = v.f
	}
	return true
}

// spell renders the scenario field behind ptr the way parse reads it; fmt's
// default formats are the spellings strconv and time.ParseDuration accept.
func (k kind) spell(ptr any) string {
	v := reflect.ValueOf(ptr).Elem().Interface()
	if f, ok := v.(float64); ok && k == gbps {
		v = f / 1e9
	}
	return fmt.Sprint(v)
}

// field declares one scalar key of a mapping that decodes into a T; ptr
// returns the address of the T field that holds it.
type field[T any] struct {
	key  string
	kind kind
	ptr  func(*T) any
}

var topFields = []field[Scenario]{
	{"name", text, func(s *Scenario) any { return &s.Name }},
	{"description", text, func(s *Scenario) any { return &s.Description }},
	{"seed", integer, func(s *Scenario) any { return &s.Seed }},
}

var topologyFields = []field[fabric.TopologySpec]{
	{"groups", posInt, func(t *fabric.TopologySpec) any { return &t.Groups }},
	{"switchesPerGroup", posInt, func(t *fabric.TopologySpec) any { return &t.SwitchesPerGroup }},
	{"nodesPerSwitch", posInt, func(t *fabric.TopologySpec) any { return &t.NodesPerSwitch }},
	{"globalLinksPerPair", posInt, func(t *fabric.TopologySpec) any { return &t.GlobalLinksPerPair }},
	{"globalBandwidthGbps", gbps, func(t *fabric.TopologySpec) any { return &t.GlobalLinkBandwidthBits }},
	{"globalLatency", duration, func(t *fabric.TopologySpec) any { return &t.GlobalLinkPropagation }},
}

var fleetFields = []field[Fleet]{
	{"nodes", posInt, func(f *Fleet) any { return &f.Nodes }},
	{"vniService", boolean, func(f *Fleet) any { return &f.VNIService }},
	{"vniPoolMin", posInt, func(f *Fleet) any { return &f.VNIPoolMin }},
	{"vniPoolMax", posInt, func(f *Fleet) any { return &f.VNIPoolMax }},
	{"quarantine", duration, func(f *Fleet) any { return &f.Quarantine }},
	{"podsPerNode", nonNegInt, func(f *Fleet) any { return &f.PodsPerNode }},
}

var trafficFields = []field[TrafficSpec]{
	{"name", text, func(t *TrafficSpec) any { return &t.Name }},
	{"pattern", text, func(t *TrafficSpec) any { return &t.Pattern }},
	{"bytes", nonNegInt, func(t *TrafficSpec) any { return &t.Bytes }},
	{"iterations", posInt, func(t *TrafficSpec) any { return &t.Iterations }},
	{"compute", duration, func(t *TrafficSpec) any { return &t.Compute }},
	{"fidelity", fidelity, func(t *TrafficSpec) any { return &t.Fidelity }},
}

var telemetryFields = []field[TelemetrySpec]{
	{"sampleEvery", posDuration, func(t *TelemetrySpec) any { return &t.SampleEvery }},
	{"sink", text, func(t *TelemetrySpec) any { return &t.Sink }},
	{"capacity", posInt, func(t *TelemetrySpec) any { return &t.Capacity }},
}

var healthFields = []field[HealthSpec]{
	{"checkEvery", posDuration, func(h *HealthSpec) any { return &h.CheckEvery }},
	{"errorsPerSecond", posNumber, func(h *HealthSpec) any { return &h.ErrorsPerSecond }},
	{"flapsPerSecond", posNumber, func(h *HealthSpec) any { return &h.FlapsPerSecond }},
	{"degradeTicks", posInt, func(h *HealthSpec) any { return &h.DegradeTicks }},
	{"stableTicks", posInt, func(h *HealthSpec) any { return &h.StableTicks }},
	{"budget", posInt, func(h *HealthSpec) any { return &h.Budget }},
	{"drainGrace", posDuration, func(h *HealthSpec) any { return &h.DrainGrace }},
	{"replaceDelay", posDuration, func(h *HealthSpec) any { return &h.ReplaceDelay }},
	{"retryBackoff", posDuration, func(h *HealthSpec) any { return &h.RetryBackoff }},
	{"maxRetries", posInt, func(h *HealthSpec) any { return &h.MaxRetries }},
}

// An event's remaining keys are its action's parameters (setParam).
var eventFields = []field[Event]{
	{"at", duration, func(e *Event) any { return &e.At }},
	{"action", text, func(e *Event) any { return &e.Action }},
	{"target", text, func(e *Event) any { return &e.Target }},
}

var assertionFields = []field[Assertion]{
	{"type", text, func(a *Assertion) any { return &a.Type }},
	{"target", text, func(a *Assertion) any { return &a.Target }},
	{"op", text, func(a *Assertion) any { return &a.Op }},
	{"value", text, func(a *Assertion) any { return &a.Value }},
}

// The three sequence sections start each item from these.
func newTraffic(line int) TrafficSpec { return TrafficSpec{Bytes: 65536, Iterations: 10, Line: line} }
func newEvent(line int) Event         { return Event{Params: map[string]string{}, Line: line} }
func newAssertion(line int) Assertion { return Assertion{Op: "==", Line: line} }

// section is one top-level block: how the file's node decodes into the
// scenario, and how the scenario's part is written back as the block's body
// (an empty body omits the section).
type section struct {
	key    string
	decode func(sc *Scenario, n *yamlsub.Node) error
	emit   func(b *strings.Builder, sc *Scenario)
}

// sections lists the blocks in emission order; a file may hold them in any.
var sections = []section{
	block("topology", topologyFields, func(sc *Scenario) *fabric.TopologySpec { return &sc.Topology }, "", nil, nil),
	block("fleet", fleetFields, func(sc *Scenario) *Fleet { return &sc.Fleet }, "", decodeTenants, emitTenants),
	list("traffic", trafficFields, func(sc *Scenario) *[]TrafficSpec { return &sc.Traffic }, newTraffic, nil, nil),
	block("telemetry", telemetryFields, func(sc *Scenario) *TelemetrySpec { return &sc.Telemetry }, "sampleEvery", nil, nil),
	block("health", healthFields, func(sc *Scenario) *HealthSpec { return &sc.Health }, "checkEvery", nil, nil),
	list("events", eventFields, func(sc *Scenario) *[]Event { return &sc.Events }, newEvent, setParam, emitParams),
	list("assertions", assertionFields, func(sc *Scenario) *[]Assertion { return &sc.Assertions }, newAssertion, nil, nil),
}

// block declares a mapping section held in the part of the scenario at
// returns. needs names the key that switches an opt-in section on, which a
// section that is present must therefore set. other decodes and tail emits
// what the part holds beyond its table fields.
func block[T any](key string, fields []field[T], at func(*Scenario) *T, needs string,
	other func(*Scenario, *T, yamlsub.Field) error, tail func(*strings.Builder, *T)) section {
	return section{key,
		func(sc *Scenario, n *yamlsub.Node) error {
			if err := decodeFields(sc, n, key, fields, at(sc), other); err != nil {
				return err
			}
			if needs != "" && n.Get(needs) == nil {
				return sc.errAt(n.Line, "%s: needs %s", key, needs)
			}
			return nil
		},
		func(b *strings.Builder, sc *Scenario) {
			emitFields(b, 2, false, fields, at(sc), at(&defaults))
			if tail != nil {
				tail(b, at(sc))
			}
		},
	}
}

// list declares a sequence section of mappings, each decoded like a block
// over a fresh mk(line) and emitted behind a dash.
func list[T any](key string, fields []field[T], at func(*Scenario) *[]T, mk func(line int) T,
	other func(*Scenario, *T, yamlsub.Field) error, tail func(*strings.Builder, *T)) section {
	return section{key,
		func(sc *Scenario, n *yamlsub.Node) error {
			if n.Kind != yamlsub.Seq {
				return sc.errAt(n.Line, "%s: must be a sequence", key)
			}
			items := make([]T, len(n.Items))
			for i, item := range n.Items {
				items[i] = mk(item.Line)
				if err := decodeFields(sc, item, key, fields, &items[i], other); err != nil {
					return err
				}
			}
			*at(sc) = items
			return nil
		},
		func(b *strings.Builder, sc *Scenario) {
			def, items := mk(0), *at(sc)
			for i := range items {
				emitFields(b, 4, true, fields, &items[i], &def)
				if tail != nil {
					tail(b, &items[i])
				}
			}
		},
	}
}

// decodeSection routes a top-level key that is not a scalar to its section.
func decodeSection(sc *Scenario, _ *Scenario, f yamlsub.Field) error {
	if s := lookup(sections, f.Key, func(s *section) string { return s.key }); s != nil {
		return s.decode(sc, f.Val)
	}
	return sc.errAt(f.Val.Line, "unknown top-level key %q", f.Key)
}

// decodeFields stores the entries of mapping n that the table names into
// dst, each checked against its kind. An entry the table does not name goes
// to other; nil means the mapping has no other keys, so typos surface as
// line-anchored errors instead of silently ignored knobs.
func decodeFields[T any](sc *Scenario, n *yamlsub.Node, where string, fields []field[T], dst *T,
	other func(*Scenario, *T, yamlsub.Field) error) error {
	if n.Kind != yamlsub.Map {
		return sc.errAt(n.Line, "%s: must be a mapping", where)
	}
	for _, f := range n.Fields {
		fd := lookup(fields, f.Key, func(fd *field[T]) string { return fd.key })
		switch {
		case fd == nil && other == nil:
			return sc.errAt(f.Val.Line, "%s: unknown key %q", where, f.Key)
		case fd == nil:
			if err := other(sc, dst, f); err != nil {
				return err
			}
		case f.Val.Kind != yamlsub.Scalar:
			return sc.errAt(f.Val.Line, "%s.%s: must be a scalar", where, f.Key)
		default:
			if v, ok := fd.kind.parse(f.Val.Scalar); !ok || !store(fd.ptr(dst), v) {
				return sc.errAt(f.Val.Line, "%s.%s: "+complaints[fd.kind], where, f.Key, f.Val.Scalar)
			}
		}
	}
	return nil
}

// decodeTenants reads fleet.tenants, the fleet's one non-scalar key: a
// sequence of names, each a bare scalar or a "name:" mapping.
func decodeTenants(sc *Scenario, fl *Fleet, f yamlsub.Field) error {
	if f.Key != "tenants" {
		return sc.errAt(f.Val.Line, "fleet: unknown key %q", f.Key)
	}
	if f.Val.Kind != yamlsub.Seq {
		return sc.errAt(f.Val.Line, "fleet.tenants: must be a sequence")
	}
	for _, item := range f.Val.Items {
		name := item.Scalar
		if item.Kind == yamlsub.Map {
			if name = item.Str("name"); name == "" || len(item.Fields) != 1 {
				return sc.errAt(item.Line, "fleet.tenants: a tenant is a name (\"- name: x\"), nothing else")
			}
		}
		fl.Tenants = append(fl.Tenants, Tenant{Name: name})
	}
	return nil
}

func emitTenants(b *strings.Builder, fl *Fleet) {
	if len(fl.Tenants) > 0 {
		b.WriteString("  tenants:\n")
	}
	for _, t := range fl.Tenants {
		writeKV(b, 4, "- name", t.Name)
	}
}

// setParam files an event key that is not at, action or target as one of
// the action's parameters; CheckEvent judges it against the declaration.
func setParam(sc *Scenario, ev *Event, f yamlsub.Field) error {
	if f.Val.Kind != yamlsub.Scalar {
		return sc.errAt(f.Val.Line, "events: %q must be a scalar", f.Key)
	}
	ev.Params[f.Key] = f.Val.Scalar
	return nil
}

// emitParams writes an event's parameters in sorted order.
func emitParams(b *strings.Builder, ev *Event) {
	keys := make([]string, 0, len(ev.Params))
	for k := range ev.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeKV(b, 4, k, ev.Params[k])
	}
}

// emitFields writes, at indent, every table field of src whose spelling
// differs from def's: what Parse fills in anyway is expressed by omission.
// item marks a sequence item, whose first field is written regardless,
// behind the item's dash.
func emitFields[T any](b *strings.Builder, indent int, item bool, fields []field[T], src, def *T) {
	for i := range fields {
		fd := &fields[i]
		s := fd.kind.spell(fd.ptr(src))
		if item && i == 0 {
			writeKV(b, indent-2, "- "+fd.key, s)
		} else if s != fd.kind.spell(fd.ptr(def)) {
			writeKV(b, indent, fd.key, s)
		}
	}
}

func writeKV(b *strings.Builder, indent int, key, val string) {
	b.WriteString(strings.Repeat(" ", indent))
	b.WriteString(key)
	b.WriteString(":")
	if val != "" {
		b.WriteString(" ")
		b.WriteString(quoteScalar(val))
	}
	b.WriteString("\n")
}
