package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// calibTolerance is how far host_calib_ms may differ between two sets
// before their difference says more about the host than about the code.
const calibTolerance = 0.10

// readSet reads every -all document in a file and groups end-to-end values
// by workload and metric, keeping each document's host calibration.
func readSet(path string) (values map[string]map[string]samples, calib samples, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	values = make(map[string]map[string]samples)
	dec := json.NewDecoder(f)
	for {
		var m merged
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range m.Runs {
			if values[r.Workload] == nil {
				values[r.Workload] = make(map[string]samples)
			}
			for _, e := range r.EndToEnd {
				values[r.Workload][e.Name] = append(values[r.Workload][e.Name], e.Value)
			}
			calib = append(calib, r.Host.HostCalibMS)
		}
	}
	if len(calib) == 0 {
		return nil, nil, fmt.Errorf("%s: no -all documents", path)
	}
	return values, calib, nil
}

// spread is the run-to-run spread of one set as a share of its median:
// the quartile distance, or the full range when there are too few runs for
// quartiles.
func spread(s samples) float64 {
	if len(s) >= 4 {
		return s.quartileSpread()
	}
	if len(s) < 2 || s.median() == 0 {
		return 0
	}
	o := s.sorted()
	return (o[len(o)-1] - o[0]) / s.median()
}

// verdict judges set b against set a for one metric. worsening is the
// change of the median in the metric's bad direction, as a share of a's
// median.
func verdict(a, b samples, better string, bound float64, hostMoved bool) (worsening float64, v string) {
	ma, mb := a.median(), b.median()
	if ma == 0 {
		return 0, "unresolved"
	}
	worsening = (mb - ma) / ma
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case hostMoved:
		return worsening, "unresolved"
	case worsening > bound:
		v = "worse"
	case worsening < -bound:
		v = "better"
	default:
		return worsening, "same"
	}
	// A difference counts only when the sets' own spread is inside the
	// bound, or the sets do not overlap at all.
	if spread(a) <= bound && spread(b) <= bound {
		return worsening, v
	}
	sa, sb := a.sorted(), b.sorted()
	if sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0] {
		return worsening, v
	}
	return worsening, "unresolved"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change against the metric's bound, and the verdict. It returns an
// error when any metric is worse, so scripts can gate on it.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, calibA, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, calibB, err := readSet(pathB)
	if err != nil {
		return err
	}
	ca, cb := calibA.median(), calibB.median()
	hostMoved := ca == 0 || (cb-ca)/ca > calibTolerance || (ca-cb)/ca > calibTolerance
	fmt.Fprintf(w, "host_calib_ms: a %.1f (%d runs), b %.1f (%d runs)", ca, len(calibA), cb, len(calibB))
	if hostMoved {
		fmt.Fprintf(w, " — differs by more than %.0f%%: the host changed, every metric is unresolved", 100*calibTolerance)
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tworsening\tbound\tspread a\tspread b\tverdict")
	worse := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t-\t-\t-\tmissing\n", wl.Name, m.Name, m.Unit)
				worse++
				continue
			}
			change, v := verdict(va, vb, m.Better, m.Bound, hostMoved)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, va.median(), vb.median(), 100*change, 100*m.Bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse or missing", worse)
	}
	return nil
}
