"""The single-file HTML/JS live dashboard served at ``/``.

No build step, no bundler, no external assets: the page below is the
entire frontend. It opens ``/ws/live``, installs the snapshot, then
applies deltas with a JS mirror of
:meth:`repro.telemetry.serve.aggregator.TelemetryAggregator.apply_delta`
— the same replay contract the Python tests pin — and re-renders
SVG charts from the replayed state. Chart styling follows the repo's
dataviz conventions: series colors are assigned by fixed order (blue,
orange, aqua), one y-axis per chart, 2px lines, a legend whenever two
or more series share a plot, text in text tokens rather than series
colors, and light/dark palettes selected via ``prefers-color-scheme``.
"""

from __future__ import annotations

__all__ = ["DASHBOARD_HTML"]

DASHBOARD_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro-fuzz live telemetry</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #f4f3f0;
  --ink: #0b0b0b; --ink-2: #52514e; --grid: #dcdbd6;
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #242422;
    --ink: #ffffff; --ink-2: #c3c2b7; --grid: #3a3936;
    --s1: #3987e5; --s2: #d95926; --s3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif; padding: 16px;
}
h1 { font-size: 18px; margin: 0 0 4px; }
h2 { font-size: 14px; margin: 0 0 8px; color: var(--ink); }
.sub { color: var(--ink-2); margin-bottom: 16px; }
.grid { display: grid; gap: 16px;
        grid-template-columns: repeat(auto-fit, minmax(340px, 1fr)); }
.card { background: var(--panel); border-radius: 8px; padding: 12px; }
.legend { display: flex; gap: 16px; margin-top: 6px;
          color: var(--ink-2); font-size: 12px; }
.legend span::before {
  content: ""; display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 5px; background: var(--c);
}
select {
  background: var(--panel); color: var(--ink);
  border: 1px solid var(--grid); border-radius: 6px;
  padding: 4px 8px; font: inherit; margin-bottom: 16px;
}
svg text { fill: var(--ink-2); font-size: 11px; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
table { border-collapse: collapse; width: 100%; font-size: 12px; }
th, td { text-align: left; padding: 3px 8px 3px 0;
         border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 500; }
.num { font-variant-numeric: tabular-nums; }
#status { font-size: 12px; color: var(--ink-2); }
.bar { height: 14px; border-radius: 4px; background: var(--s1); }
</style>
</head>
<body>
<h1>repro-fuzz live telemetry</h1>
<div class="sub"><span id="status">connecting&hellip;</span></div>
<label>campaign
  <select id="campaign"></select>
</label>
<div class="grid">
  <div class="card"><h2>Coverage (edges)</h2>
    <svg id="coverage" viewBox="0 0 320 160"></svg></div>
  <div class="card"><h2>Throughput (execs/sec)</h2>
    <svg id="throughput" viewBox="0 0 320 160"></svg></div>
  <div class="card"><h2>Crashes &amp; hangs</h2>
    <svg id="crashes" viewBox="0 0 320 160"></svg>
    <div class="legend">
      <span style="--c: var(--s1)">crashes</span>
      <span style="--c: var(--s2)">hangs</span>
    </div></div>
  <div class="card"><h2>Memsim cycle share by level</h2>
    <div id="levels"></div></div>
  <div class="card"><h2>Event timeline</h2><div id="timeline"></div></div>
</div>
<script>
"use strict";
let state = {seq: 0, campaigns: {}};
let selected = null;

// Mirror of TelemetryAggregator.apply_delta (the tested contract).
function applyDelta(snapshot, delta) {
  const cs = snapshot.campaigns;
  if (!(delta.campaign in cs)) {
    cs[delta.campaign] = {id: delta.campaign, meta: {}, final: {},
      levels: {}, series: {coverage: [], throughput: [], execs: [],
      density: [], crashes: [], timeline: []}};
  }
  const target = cs[delta.campaign];
  if (delta.op === "append") {
    target.series[delta.series].push(delta.row.slice());
  } else if (delta.op === "set") {
    target[delta.key] = delta.value;
  }
  snapshot.seq = delta.seq;
}

function fmt(x) {
  return (typeof x === "number" && !Number.isInteger(x))
    ? x.toFixed(1) : String(x);
}

function linePath(rows, xi, yi, xmax, ymax, w, h) {
  return rows.map((r, i) =>
    (i ? "L" : "M") +
    (8 + (r[xi] / (xmax || 1)) * (w - 16)).toFixed(1) + "," +
    (h - 14 - (r[yi] / (ymax || 1)) * (h - 28)).toFixed(1)
  ).join(" ");
}

function drawLines(svgId, rows, cols, colors) {
  const svg = document.getElementById(svgId);
  const w = 320, h = 160;
  if (!rows.length) { svg.innerHTML =
    "<text x='12' y='24'>no samples yet</text>"; return; }
  const xmax = rows[rows.length - 1][0];
  let ymax = 0;
  for (const r of rows) for (const c of cols)
    if (r[c] > ymax) ymax = r[c];
  let out = "<line class='axis' x1='8' y1='" + (h - 14) +
    "' x2='" + (w - 8) + "' y2='" + (h - 14) + "'/>";
  cols.forEach((c, k) => {
    out += "<path d='" + linePath(rows, 0, c, xmax, ymax, w, h) +
      "' fill='none' stroke='" + colors[k] +
      "' stroke-width='2' stroke-linejoin='round'/>";
  });
  const last = rows[rows.length - 1];
  out += "<text x='8' y='12'>" + fmt(ymax) + "</text>";
  out += "<text x='" + (w - 8) + "' y='" + (h - 2) +
    "' text-anchor='end'>t=" + fmt(last[0]) + "s</text>";
  svg.innerHTML = out;
}

function render() {
  const ids = Object.keys(state.campaigns).sort();
  const sel = document.getElementById("campaign");
  if (sel.options.length !== ids.length) {
    const keep = selected;
    sel.innerHTML = "";
    for (const id of ids) {
      const opt = document.createElement("option");
      opt.value = opt.textContent = id;
      sel.appendChild(opt);
    }
    if (keep && ids.includes(keep)) sel.value = keep;
  }
  selected = sel.value || ids[0] || null;
  const cs = selected ? state.campaigns[selected] : null;
  const css = getComputedStyle(document.documentElement);
  const s1 = css.getPropertyValue("--s1").trim();
  const s2 = css.getPropertyValue("--s2").trim();
  if (!cs) return;
  drawLines("coverage", cs.series.coverage, [1], [s1]);
  drawLines("throughput", cs.series.throughput, [1], [s2]);
  drawLines("crashes", cs.series.crashes, [1, 2], [s1, s2]);

  const levels = Object.keys(cs.levels).sort();
  document.getElementById("levels").innerHTML = levels.length
    ? "<table>" + levels.map(l => {
        const pct = (cs.levels[l] * 100);
        return "<tr><th>" + l + "</th><td class='num'>" +
          pct.toFixed(1) + "%</td><td style='width:55%'>" +
          "<div class='bar' style='width:" +
          Math.min(100, pct).toFixed(1) + "%'></div></td></tr>";
      }).join("") + "</table>"
    : "<span id='status'>no metrics.json yet</span>";

  const tl = cs.series.timeline.slice(-12).reverse();
  document.getElementById("timeline").innerHTML = tl.length
    ? "<table>" + tl.map(r =>
        "<tr><td class='num'>" + fmt(r[0]) + "s</td><td>" + r[1] +
        "</td><td>#" + r[2] + "</td><td>" +
        JSON.stringify(r[3]) + "</td></tr>").join("") + "</table>"
    : "<span id='status'>no events</span>";
}

document.getElementById("campaign")
  .addEventListener("change", render);

function connect() {
  const ws = new WebSocket(
    (location.protocol === "https:" ? "wss://" : "ws://") +
    location.host + "/ws/live");
  const status = document.getElementById("status");
  ws.onmessage = (msg) => {
    const frame = JSON.parse(msg.data);
    if (frame.type === "snapshot") state = frame.snapshot;
    else if (frame.type === "delta") applyDelta(state, frame.delta);
    status.textContent = "live \\u00b7 seq " + state.seq;
    render();
  };
  ws.onclose = () => {
    status.textContent = "disconnected \\u2014 retrying";
    setTimeout(connect, 2000);
  };
}
connect();
</script>
</body>
</html>
"""
