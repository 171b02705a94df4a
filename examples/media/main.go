// Media: a streaming-pipeline federation, the application domain that
// motivated the earlier service-path systems the paper generalises. A media
// source is transcoded and watermarked on parallel video/audio branches that
// re-merge at a muxer before encrypted delivery — a split-and-merge
// requirement a single service path cannot express. The example contrasts
// the sFlow DAG federation against the single-service-path approach.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"sflow"
)

// Services of the media pipeline.
const (
	source = iota + 1
	demuxer
	videoTranscoder
	audioTranscoder
	muxer
	encryptor
	client
)

var serviceName = map[int]string{
	source:          "MediaSource",
	demuxer:         "Demuxer",
	videoTranscoder: "VideoTranscoder",
	audioTranscoder: "AudioTranscoder",
	muxer:           "Muxer",
	encryptor:       "Encryptor",
	client:          "Client",
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Video and audio are processed in parallel between the demuxer and
	// the muxer — the split-and-merge topology of Fig 8.
	req, err := sflow.RequirementFromEdges([][2]int{
		{source, demuxer},
		{demuxer, videoTranscoder}, {demuxer, audioTranscoder},
		{videoTranscoder, muxer}, {audioTranscoder, muxer},
		{muxer, encryptor},
		{encryptor, client},
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(13))
	under, err := sflow.GenerateNetwork(rng, sflow.NetworkConfig{
		Nodes: 25, ExtraLinks: 15, MinBandwidth: 100, MaxBandwidth: 8000,
	})
	if err != nil {
		return err
	}
	compat := sflow.NewCompatibility()
	for _, e := range req.Edges() {
		compat.Allow(e[0], e[1])
	}
	var placements []sflow.Placement
	nid := 0
	for _, sid := range req.Services() {
		n := 3 // three candidate instances per processing stage
		if sid == source || sid == client {
			n = 1
		}
		for k := 0; k < n; k++ {
			placements = append(placements, sflow.Placement{NID: nid, SID: sid, Host: rng.Intn(25)})
			nid++
		}
	}
	ov, err := sflow.BuildOverlay(under, placements, compat)
	if err != nil {
		return err
	}
	src := ov.InstancesOf(source)[0]

	fmt.Fprintln(w, "media-streaming federation: DAG flow graph vs single service path")
	fmt.Fprintf(w, "pipeline: %d stages, %d streams; overlay: %d instances\n\n",
		req.NumServices(), req.NumDependencies(), ov.NumInstances())

	res, err := sflow.Federate(ov, req, src, sflow.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "sFlow stage placement:")
	for _, sid := range req.Services() {
		inst, _ := res.Flow.Assigned(sid)
		fmt.Fprintf(w, "  %-16s -> instance %d\n", serviceName[sid], inst)
	}
	fmt.Fprintf(w, "sFlow quality: bandwidth %d Kbit/s, latency %d us\n\n",
		res.Metric.Bandwidth, res.Metric.Latency)

	// The single-service-path algorithm cannot express the parallel
	// video/audio branches: it federates only the main chain and leaves
	// the other branch out, which it reports as a partial federation.
	var spFlow *sflow.FlowGraph
	sol, err := sflow.Solve("servicepath", ov, req, src, sflow.SolveOptions{})
	var partial *sflow.PartialFederationError
	switch {
	case err == nil:
		spFlow = sol.Flow
	case errors.As(err, &partial):
		spFlow = partial.Flow
	default:
		return err
	}
	fmt.Fprintf(w, "service-path placement covers %d of %d stages (complete: %v):\n",
		spFlow.NumAssigned(), req.NumServices(), spFlow.Complete(req))
	for _, sid := range req.Services() {
		if inst, ok := spFlow.Assigned(sid); ok {
			fmt.Fprintf(w, "  %-16s -> instance %d\n", serviceName[sid], inst)
		} else {
			fmt.Fprintf(w, "  %-16s -> (not federated)\n", serviceName[sid])
		}
	}

	// And the paper's headline: with the SAME stage placement, executing
	// the video and audio branches in parallel (DAG critical path) never
	// takes longer than forcing them into one sequential service path —
	// routed latencies obey the triangle inequality, so the sequential
	// detour through the other branch can only add delay.
	sequential, err := sflow.PathRequirement(
		source, demuxer, videoTranscoder, audioTranscoder, muxer, encryptor, client)
	if err != nil {
		return err
	}
	seqCompat := sflow.NewCompatibility()
	for _, e := range sequential.Edges() {
		seqCompat.Allow(e[0], e[1])
	}
	// Rebuild the overlay with the sequential compatibility so the chain
	// is routable end to end, then evaluate sFlow's placement on it.
	seqOv, err := sflow.BuildOverlay(under, placements, seqCompat)
	if err != nil {
		return err
	}
	seqMetric, err := sflow.EvaluateAssignment(seqOv, sequential, res.Flow.Assignment())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsame placement, parallel DAG latency: %6d us\n", res.Metric.Latency)
	fmt.Fprintf(w, "same placement, sequentialised:       %6d us\n", seqMetric.Latency)
	if res.Metric.Latency <= seqMetric.Latency {
		fmt.Fprintln(w, "-> interleaved branches beat the sequential service path, as the paper argues")
	}
	return nil
}
