package serve

import "net/http"

// handleDashboard serves the live verdict dashboard: a self-contained
// HTML+JS page that polls this API on the same origin — GET /v1/tenants for
// the tenant list, then a long-poll loop on each tenant's verdicts
// (?since=N&wait=1) and its stats. Service and tenant names come from
// clients, so the page writes every one through textContent, never as HTML.
func handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!DOCTYPE html>
<html><head><title>causalfl — live verdicts</title>
<style>
body { font-family: monospace; margin: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
td, th { border: 1px solid #999; padding: 3px 8px; text-align: left; }
.confirmed { background: #fdd; font-weight: bold; }
.muted { color: #777; }
</style></head><body>
<h1>causalfl — live verdict dashboard</h1>
<p id="status" class="muted">connecting…</p>
<div id="tenants"></div>
<script>
"use strict";
const status = document.getElementById("status");
const root = document.getElementById("tenants");
const watched = new Set();
const sleep = ms => new Promise(res => setTimeout(res, ms));

// el builds an element whose text is set as text, never parsed as HTML.
function el(tag, text, cls) {
  const e = document.createElement(tag);
  if (text !== undefined) e.textContent = text;
  if (cls) e.className = cls;
  return e;
}

function section(name) {
  const table = el("table"), head = table.appendChild(el("thead")).appendChild(el("tr"));
  for (const h of ["seq", "at", "confirmed", "candidates"]) head.appendChild(el("th", h));
  const rows = table.appendChild(el("tbody")), stats = el("p", "", "muted");
  root.append(el("h2", "tenant " + name), stats, table);
  return {stats, rows};
}

function row(rows, sv) {
  const v = sv.verdict, confirmed = v.confirmed || [];
  const tr = el("tr", undefined, confirmed.length > 0 ? "confirmed" : "");
  for (const cell of [sv.seq, v.at, confirmed.join(", "), (v.candidates || []).join(", ")]) {
    tr.appendChild(el("td", String(cell)));
  }
  rows.insertBefore(tr, rows.firstChild);
  while (rows.rows.length > 50) rows.deleteRow(-1);
}

async function pollStats(name, stats) {
  for (;;) {
    try {
      const r = await fetch("/v1/tenants/" + name + "/stats");
      if (r.ok) {
        const st = await r.json();
        stats.textContent =
          "processed " + st.processed + " batches, shed " + st.shed +
          ", queue " + st.queue_len + "/" + st.queue_cap +
          ", out-of-order " + st.pipeline.aggregator.out_of_order +
          ", dead " + st.pipeline.aggregator.dead;
      }
    } catch (e) { /* transient; the verdict poll reports outages */ }
    await sleep(2000);
  }
}

async function pollVerdicts(name, rows) {
  let since = 0;
  for (;;) {
    try {
      const r = await fetch("/v1/tenants/" + name + "/verdicts?since=" + since + "&wait=1");
      if (!r.ok) throw new Error(r.status);
      const out = await r.json();
      for (const sv of out.verdicts || []) row(rows, sv);
      since = out.next;
    } catch (e) { await sleep(2000); }
  }
}

async function discover() {
  for (;;) {
    try {
      const r = await fetch("/v1/tenants");
      if (!r.ok) throw new Error(r.status);
      const out = await r.json();
      status.textContent = (out.tenants || []).length + " tenant(s)";
      for (const name of out.tenants || []) {
        if (watched.has(name)) continue;
        watched.add(name);
        const view = section(name);
        pollVerdicts(name, view.rows);
        pollStats(name, view.stats);
      }
    } catch (e) {
      status.textContent = "serve API unreachable";
    }
    await sleep(5000);
  }
}
discover();
</script>
</body></html>
`
