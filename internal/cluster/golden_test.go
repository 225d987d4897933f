package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/task"
)

// The wire goldens pin every frame of the current protocol version: one text
// file per frame under testdata/v<protocolVersion>/, listing the frame's
// decoded fields one per line, a blank line, and then the frame's bytes
// (header included) in hex, 16 to a line.

var updateGoldens = flag.Bool("update", false, "rewrite the wire goldens under testdata/v<protocolVersion>/")

// goldenDir is where the current protocol version's goldens live. A version
// bump moves it, so a bump without regenerated goldens fails TestWireGoldens.
var goldenDir = filepath.Join("testdata", fmt.Sprintf("v%d", protocolVersion))

// goldenN and goldenEdges are the fixed small graph behind the SHARD, EOS and
// CORESET goldens: a hub (vertex 0) of degree 40, which vc's peel fixes on a
// single machine at n = 256, a triangle and two more edges among its leaves,
// and a path of five edges away from it.
const goldenN = 256

var goldenEdges = func() []graph.Edge {
	var es []graph.Edge
	for v := graph.ID(1); v <= 40; v++ {
		es = append(es, graph.Edge{U: 0, V: v})
	}
	return append(es, []graph.Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 1}, {U: 4, V: 5}, {U: 6, V: 7},
		{U: 41, V: 42}, {U: 42, V: 43}, {U: 43, V: 44}, {U: 44, V: 45}, {U: 45, V: 46}}...)
}()

var frameNames = map[byte]string{
	frameHello: "HELLO", frameAck: "ACK", frameShard: "SHARD", frameEOS: "EOS",
	frameCoreset: "CORESET", frameError: "ERROR", frameTelem: "TELEM",
}

// goldenFrame is one golden: its file stem, the frame's bytes, for a
// CORESET the task whose body codec it speaks, and, read from a file, the
// fields the file lists.
type goldenFrame struct {
	name   string
	d      *task.Descriptor
	frame  []byte
	fields []string
}

// currentFrames encodes every golden frame with this package's encoders as
// they are now: the frames TestWireGoldens compares against the files.
func currentFrames(t testing.TB) []goldenFrame {
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if _, err := writeFrame(&b, typ, payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	_, skew := decodeHello([]byte{protocolVersion - 1, taskMatching, 0})
	fs := []goldenFrame{
		{name: "hello-single", frame: frame(frameHello, encodeHello(hello{
			version: protocolVersion, task: taskMatching, machine: 1, k: 4, known: true, n: goldenN,
			rounds: 1, runID: "r-00c0ffee"}))},
		{name: "hello-rounds", frame: frame(frameHello, encodeHello(hello{
			version: protocolVersion, task: taskEDCSRounds, machine: 0, k: 2,
			edcs: edcs.ParamsForBeta(16), rounds: 3}))},
		{name: "ack", frame: frame(frameAck, encodeAck())},
		{name: "shard", frame: frame(frameShard, graph.AppendEdgeBatch(nil, goldenEdges[36:46]))},
		{name: "eos", frame: frame(frameEOS, binary.AppendUvarint(nil, goldenN))},
		{name: "telem", frame: frame(frameTelem, appendTelem(nil, workerTelem{
			decodeNS: 1_500_000, buildNS: 92_000_000, encodeNS: 310_000,
			edgesIn: 4096, BuildCounters: graph.BuildCounters{RepairIters: 17, Removals: 9, PeakCoreset: 801}}))},
		{name: "error", frame: frame(frameError, []byte(skew.Error()))},
	}
	for _, name := range task.Names() {
		d := task.MustGet(name)
		b := d.NewBuilder(1, goldenN, task.Params{EDCS: edcs.ParamsForBeta(4)})
		for _, e := range goldenEdges {
			b.Add(e)
		}
		sum := b.Finish(goldenN)
		sum.Edges = len(goldenEdges)
		fs = append(fs, goldenFrame{name: "coreset-" + name, d: d,
			frame: frame(frameCoreset, task.AppendSummary(nil, d, sum))})
	}
	return fs
}

// decodeGolden decodes a frame with this package's decoders, lists its
// fields, and re-encodes it from the decoded values alone.
func decodeGolden(frame []byte, d *task.Descriptor) (fields []string, again []byte, err error) {
	typ, payload, n, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		return nil, nil, err
	}
	if n != len(frame) {
		return nil, nil, fmt.Errorf("%d bytes after the frame", len(frame)-n)
	}
	add := func(format string, args ...any) { fields = append(fields, fmt.Sprintf(format, args...)) }
	add("frame %s", frameNames[typ])
	var body []byte
	switch typ {
	case frameHello:
		h, err := decodeHello(payload)
		if err != nil {
			return nil, nil, err
		}
		add("version %d", h.version)
		add("task 0x%02x %s", h.task, taskName(h.task))
		add("known %t", h.known)
		add("machine %d", h.machine)
		add("k %d", h.k)
		add("n %d", h.n)
		if d, _, _ := task.ByWire(h.task); d.UsesBeta {
			add("beta %d", h.edcs.Beta)
			add("beta-minus %d", h.edcs.BetaMinus)
		}
		add("rounds %d", h.rounds)
		add("run %q", h.runID)
		body = encodeHello(h)
	case frameAck:
		if !bytes.Equal(payload, encodeAck()) {
			return nil, nil, fmt.Errorf("ACK % x, want % x", payload, encodeAck())
		}
		add("version %d", payload[0])
		body = encodeAck()
	case frameShard:
		edges, rest, err := graph.DecodeEdgeBatch(payload)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) != 0 {
			return nil, nil, fmt.Errorf("%d trailing bytes in SHARD", len(rest))
		}
		add("edges %s", fmtEdges(edges))
		body = graph.AppendEdgeBatch(nil, edges)
	case frameEOS:
		v, k := binary.Uvarint(payload)
		if k <= 0 || k != len(payload) {
			return nil, nil, fmt.Errorf("corrupt EOS % x", payload)
		}
		add("n %d", v)
		body = binary.AppendUvarint(nil, v)
	case frameTelem:
		tm, err := decodeTelem(payload)
		if err != nil {
			return nil, nil, err
		}
		add("decode-ns %d", tm.decodeNS)
		add("build-ns %d", tm.buildNS)
		add("encode-ns %d", tm.encodeNS)
		add("edges-in %d", tm.edgesIn)
		add("repair-iters %d", tm.RepairIters)
		add("removals %d", tm.Removals)
		add("peak-coreset %d", tm.PeakCoreset)
		body = appendTelem(nil, tm)
	case frameError:
		add("message %q", payload)
		body = bytes.Clone(payload)
	case frameCoreset:
		if d == nil {
			return nil, nil, fmt.Errorf("CORESET golden names no task")
		}
		s, err := task.DecodeSummary(d, payload)
		if err != nil {
			return nil, nil, err
		}
		add("task %s", d.Name)
		add("received %d", s.Edges)
		add("stored %d", s.Stored)
		add("live %d", s.Live)
		add("body-bytes %d", s.Bytes)
		if s.Coreset != nil {
			add("coreset %s", fmtEdges(s.Coreset))
		}
		if s.VC != nil {
			add("fixed %v", s.VC.Fixed)
			add("residual %s", fmtEdges(s.VC.Residual))
			add("levels %v", s.VC.Levels)
		}
		if s.Verts != nil {
			add("verts %v", s.Verts)
		}
		body = task.AppendSummary(nil, d, s)
	default:
		return nil, nil, fmt.Errorf("unknown frame type 0x%02x", typ)
	}
	var b bytes.Buffer
	if _, err := writeFrame(&b, typ, body); err != nil {
		return nil, nil, err
	}
	return fields, b.Bytes(), nil
}

func fmtEdges(es []graph.Edge) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = fmt.Sprintf("%d-%d", e.U, e.V)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// renderGolden is a golden file's text: the fields, a blank line, the hex.
func renderGolden(fields []string, frame []byte) string {
	var b strings.Builder
	for _, f := range fields {
		b.WriteString(f + "\n")
	}
	b.WriteString("\n")
	for chunk := range slices.Chunk(frame, 16) {
		fmt.Fprintf(&b, "% x\n", chunk)
	}
	return b.String()
}

// parseGolden splits a golden file into its field lines and the frame bytes
// its hex spells, and resolves the task a CORESET golden names.
func parseGolden(text string) (fields []string, frame []byte, d *task.Descriptor, err error) {
	head, hexPart, ok := strings.Cut(text, "\n\n")
	if !ok {
		return nil, nil, nil, fmt.Errorf("no blank line between the fields and the hex")
	}
	fields = strings.Split(head, "\n")
	if frame, err = hex.DecodeString(strings.Join(strings.Fields(hexPart), "")); err != nil {
		return nil, nil, nil, err
	}
	if slices.Contains(fields, "frame CORESET") {
		for _, f := range fields {
			if name, ok := strings.CutPrefix(f, "task "); ok {
				if d, ok = task.Get(name); !ok {
					return nil, nil, nil, fmt.Errorf("unknown task %q", name)
				}
			}
		}
	}
	return fields, frame, d, nil
}

// readGoldens reads every golden file of the current version.
func readGoldens(t testing.TB) []goldenFrame {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no wire goldens for protocol version %d in %s: a version bump needs regenerated goldens (go test ./internal/cluster -run TestWireGoldens -update)",
			protocolVersion, goldenDir)
	}
	var gs []goldenFrame
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fields, frame, d, err := parseGolden(string(text))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		gs = append(gs, goldenFrame{name: strings.TrimSuffix(filepath.Base(p), ".txt"), d: d, frame: frame, fields: fields})
	}
	return gs
}

// goldenPayloads returns the payloads of the golden frames of type typ.
func goldenPayloads(t testing.TB, typ byte) [][]byte {
	var ps [][]byte
	for _, g := range readGoldens(t) {
		if g.frame[0] == typ {
			ps = append(ps, g.frame[frameHeaderLen:len(g.frame)-frameTrailerLen])
		}
	}
	return ps
}

// TestWireGoldens: every frame this package encodes today is byte for byte
// the golden of the current protocol version, and every golden decodes to
// the fields it lists and re-encodes to its own bytes. A frame whose bytes
// change without a protocolVersion bump fails here and names the frame; so
// does a bump whose goldens were not regenerated (-update writes them).
func TestWireGoldens(t *testing.T) {
	cases := currentFrames(t)
	if *updateGoldens {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			fields, _, err := decodeGolden(c.frame, c.d)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, c.name+".txt"), []byte(renderGolden(fields, c.frame)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	onDisk := readGoldens(t)
	byName := make(map[string]goldenFrame)
	for _, g := range onDisk {
		byName[g.name] = g
	}
	for _, c := range cases {
		g, ok := byName[c.name]
		if !ok {
			t.Errorf("%s: no golden in %s: regenerate with -update", c.name, goldenDir)
			continue
		}
		delete(byName, c.name)
		if !bytes.Equal(c.frame, g.frame) {
			t.Errorf("%s: the %s frame's bytes differ from %s/%s.txt at protocol version %d; "+
				"a layout change needs a protocolVersion bump and regenerated goldens (-update)\nencoded now: % x\ngolden:      % x",
				c.name, frameNames[c.frame[0]], goldenDir, c.name, protocolVersion, c.frame, g.frame)
		}
	}
	for name := range byName {
		t.Errorf("%s/%s.txt is no frame this package encodes: remove it", goldenDir, name)
	}

	// The round trip runs on the files alone: decode the hex, compare the
	// fields listed, re-encode from the decoded values.
	for _, g := range onDisk {
		got, again, err := decodeGolden(g.frame, g.d)
		if err != nil {
			t.Errorf("%s: the golden does not decode: %v", g.name, err)
			continue
		}
		if !slices.Equal(got, g.fields) {
			t.Errorf("%s: decodes to\n%s\nbut lists\n%s", g.name, strings.Join(got, "\n"), strings.Join(g.fields, "\n"))
		}
		if !bytes.Equal(again, g.frame) {
			t.Errorf("%s: re-encodes to % x, not its own bytes % x", g.name, again, g.frame)
		}
	}
}

// TestBitFlipsAreRefused: the checksum trailer makes a frame all or nothing.
// Every single-bit flip of the golden SHARD frame and of the vc CORESET
// frame — in the header, the payload or the trailer — is refused: none reads
// back as a frame, whatever the flipped length prefix makes of the rest.
func TestBitFlipsAreRefused(t *testing.T) {
	checked := 0
	for _, g := range readGoldens(t) {
		if g.name != "shard" && g.name != "coreset-vc" {
			continue
		}
		checked++
		for bit := 0; bit < 8*len(g.frame); bit++ {
			flipped := bytes.Clone(g.frame)
			flipped[bit/8] ^= 1 << (bit % 8)
			if typ, payload, _, err := readFrame(bytes.NewReader(flipped)); err == nil {
				t.Errorf("%s: with bit %d flipped it reads back as a 0x%02x frame of %d payload bytes", g.name, bit, typ, len(payload))
			}
		}
	}
	if checked != 2 {
		t.Fatalf("found %d of the SHARD and vc CORESET goldens", checked)
	}
}
