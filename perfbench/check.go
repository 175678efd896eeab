package main

// The answer check: a seeded sample of served answers, verified off the
// clock against the global-iteration oracle (flos.Certify) up to ties within
// each answer's certified gap.

import (
	"encoding/json"
	"fmt"
	"math"

	"flos"
)

type rankedJSON struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

type certJSON struct {
	Certified bool    `json:"certified"`
	Gap       float64 `json:"gap"`
}

// answer is one ranked list the server returned for a query.
type answer struct {
	q    int32
	m    flos.Measure
	k    int
	list []rankedJSON
	cert certJSON
}

// answers decodes the ranked lists of one read response.
func answers(o *op, body []byte) ([]answer, error) {
	k := o.keys[0]
	switch {
	case o.method == "POST": // /v1/topk/batch
		var b struct {
			Results []struct {
				Query         int32        `json:"query"`
				Error         string       `json:"error"`
				Results       []rankedJSON `json:"results"`
				Certification *certJSON    `json:"certification"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		if len(b.Results) != len(o.keys) {
			return nil, fmt.Errorf("batch answered %d of %d queries", len(b.Results), len(o.keys))
		}
		var out []answer
		for i, s := range b.Results {
			if s.Error != "" || s.Certification == nil || s.Query != o.keys[i].Q {
				return nil, fmt.Errorf("batch slot %d: query %d error %q", i, s.Query, s.Error)
			}
			out = append(out, answer{q: s.Query, m: measureKinds[k.M], k: k.K, list: s.Results, cert: *s.Certification})
		}
		return out, nil
	case k.M == "unified":
		var b struct {
			PHP     []rankedJSON `json:"php_family"`
			RWR     []rankedJSON `json:"rwr"`
			PHPCert certJSON     `json:"php_certification"`
			RWRCert certJSON     `json:"rwr_certification"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		return []answer{
			{q: k.Q, m: flos.PHP, k: k.K, list: b.PHP, cert: b.PHPCert},
			{q: k.Q, m: flos.RWR, k: k.K, list: b.RWR, cert: b.RWRCert},
		}, nil
	default:
		var b struct {
			Query   int32        `json:"query"`
			Results []rankedJSON `json:"results"`
			Cert    certJSON     `json:"certification"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		if b.Query != k.Q {
			return nil, fmt.Errorf("answer for query %d, asked %d", b.Query, k.Q)
		}
		return []answer{{q: k.Q, m: measureKinds[k.M], k: k.K, list: b.Results, cert: b.Cert}}, nil
	}
}

// tolerance is the score slack within which a node counts as tied with
// the exact k-th: the answer's achieved certification gap, converted to
// the displayed scale (DHT displays the key divided by c), plus rounding.
func tolerance(a answer, p flos.Params) float64 {
	gap := a.cert.Gap
	if a.m == flos.DHT {
		gap /= p.C
	}
	return gap + 1e-7
}

// checkAnswers verifies every sampled read response against the oracle on
// g, marks each wrong one failed, and returns how many it checked.
func checkAnswers(g flos.Graph, ops []op, res []result) int {
	var items []*result
	for i := range res {
		if o := &ops[res[i].idx]; o.check && o.kind == opRead && res[i].ok {
			items = append(items, &res[i])
		}
	}
	_ = parallel(len(items), func(i int) error {
		r := items[i]
		if err := checkOne(g, &ops[r.idx], r.body); err != nil {
			r.ok, r.err = false, "wrong answer: "+err.Error()
		}
		return nil
	})
	return len(items)
}

// oracleParams are the server's default measure parameters with the global
// iteration run to convergence: at the default Jacobi threshold (1e-5) the
// oracle stops after a handful of sweeps and can misorder nodes whose
// scores differ in the third significant digit, which the engine's
// certified bounds resolve correctly.
func oracleParams() flos.Params {
	p := flos.DefaultParams()
	p.Tau = 1e-13
	p.MaxIter = 1 << 20
	return p
}

func checkOne(g flos.Graph, o *op, body []byte) error {
	p := oracleParams()
	as, err := answers(o, body)
	if err != nil {
		return fmt.Errorf("%s: %w", o.path, err)
	}
	for _, a := range as {
		if !a.cert.Certified {
			return fmt.Errorf("%s: %v answer not certified", o.path, a.m)
		}
		if len(a.list) > a.k {
			return fmt.Errorf("%s: q=%d %v answer has %d nodes, k=%d", o.path, a.q, a.m, len(a.list), a.k)
		}
		if len(a.list) < a.k {
			if err := checkShort(g, a, p); err != nil {
				return fmt.Errorf("%s: %w", o.path, err)
			}
		}
		res := &flos.Result{}
		for _, r := range a.list {
			res.TopK = append(res.TopK, flos.Ranked{Node: flos.NodeID(r.Node), Score: r.Score})
		}
		if err := flos.Certify(g, flos.NodeID(a.q), res, a.m, p, tolerance(a, p)); err != nil {
			return fmt.Errorf("%s: %v: %w", o.path, a.m, err)
		}
	}
	return nil
}

// checkShort accepts an answer with fewer than k nodes only when the nodes
// it leaves out all tie, as when q's component holds fewer than k other
// nodes and everything beyond it scores the same.
func checkShort(g flos.Graph, a answer, p flos.Params) error {
	oracle, _, err := flos.Exact(g, flos.NodeID(a.q), a.m, p)
	if err != nil {
		return err
	}
	in := map[int32]bool{a.q: true}
	for _, r := range a.list {
		in[r.Node] = true
	}
	tol := tolerance(a, p)
	first, seen := 0.0, false
	for v, s := range oracle {
		switch {
		case in[int32(v)]:
		case !seen:
			first, seen = s, true
		case math.Abs(s-first) > tol:
			return fmt.Errorf("q=%d %v answer has %d of %d nodes but the nodes left out do not tie", a.q, a.m, len(a.list), a.k)
		}
	}
	return nil
}
