//! # traclus-viz
//!
//! Dependency-free SVG rendering of trajectory scenes and TRACLUS results.
//!
//! The paper validates clustering by *visual inspection* ("We have
//! implemented a visual inspection tool for cluster validation",
//! Section 7.2) and presents Figures 18/21/22/23 as plots of thin green
//! trajectories overlaid with thick red representative trajectories. This
//! crate regenerates those images: [`SvgCanvas`] is a minimal SVG writer,
//! [`render_clustering`] reproduces the paper's visual convention.

use std::fmt::Write as _;

use traclus_core::TraclusOutcome;
use traclus_geom::{Aabb2, Point2, Trajectory};

/// An RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Color(pub u8, pub u8, pub u8);

impl Color {
    /// Hex string `#rrggbb`.
    pub fn hex(&self) -> String {
        format!("#{:02x}{:02x}{:02x}", self.0, self.1, self.2)
    }

    /// The paper's thin-green trajectory colour.
    pub const TRAJECTORY_GREEN: Color = Color(0x2e, 0x8b, 0x57);
    /// The paper's thick-red representative colour.
    pub const REPRESENTATIVE_RED: Color = Color(0xd6, 0x2a, 0x2a);
    /// Muted grey for noise segments.
    pub const NOISE_GREY: Color = Color(0xb0, 0xb0, 0xb0);

    /// A qualitative palette for per-cluster colouring.
    pub fn palette(i: usize) -> Color {
        const PALETTE: [Color; 10] = [
            Color(0x1f, 0x77, 0xb4),
            Color(0xff, 0x7f, 0x0e),
            Color(0x2c, 0xa0, 0x2c),
            Color(0xd6, 0x27, 0x28),
            Color(0x94, 0x67, 0xbd),
            Color(0x8c, 0x56, 0x4b),
            Color(0xe3, 0x77, 0xc2),
            Color(0x7f, 0x7f, 0x7f),
            Color(0xbc, 0xbd, 0x22),
            Color(0x17, 0xbe, 0xcf),
        ];
        PALETTE[i % PALETTE.len()]
    }
}

/// A minimal SVG document builder mapping world coordinates to pixels
/// (y-axis flipped so larger y draws upward, as on a map).
#[derive(Debug, Clone)]
pub struct SvgCanvas {
    width: f64,
    height: f64,
    world: Aabb2,
    body: String,
}

impl SvgCanvas {
    /// Creates a canvas for the given world box, scaled into
    /// `width × height` pixels with a small margin. Panics on an empty
    /// world box.
    pub fn new(world: Aabb2, width: f64, height: f64) -> Self {
        assert!(!world.is_empty(), "cannot render an empty world box");
        assert!(width > 0.0 && height > 0.0);
        Self {
            width,
            height,
            world,
            body: String::new(),
        }
    }

    fn tx(&self, p: &Point2) -> (f64, f64) {
        let margin = 10.0;
        let w = (self.world.max[0] - self.world.min[0]).max(1e-12);
        let h = (self.world.max[1] - self.world.min[1]).max(1e-12);
        let sx = (self.width - 2.0 * margin) / w;
        let sy = (self.height - 2.0 * margin) / h;
        let x = margin + (p.x() - self.world.min[0]) * sx;
        let y = self.height - margin - (p.y() - self.world.min[1]) * sy;
        (x, y)
    }

    /// Draws a polyline through `points`.
    pub fn polyline(&mut self, points: &[Point2], color: Color, stroke_width: f64, opacity: f64) {
        if points.len() < 2 {
            return;
        }
        let mut attr = String::new();
        for p in points {
            let (x, y) = self.tx(p);
            let _ = write!(attr, "{x:.2},{y:.2} ");
        }
        let _ = writeln!(
            self.body,
            r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="{stroke_width}" stroke-opacity="{opacity}" stroke-linecap="round"/>"#,
            attr.trim_end(),
            color.hex(),
        );
    }

    /// Draws a single line segment.
    pub fn segment(
        &mut self,
        a: &Point2,
        b: &Point2,
        color: Color,
        stroke_width: f64,
        opacity: f64,
    ) {
        let (x1, y1) = self.tx(a);
        let (x2, y2) = self.tx(b);
        let _ = writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{}" stroke-width="{stroke_width}" stroke-opacity="{opacity}"/>"#,
            color.hex(),
        );
    }

    /// Draws a filled circle of pixel radius `r` at world point `p`.
    pub fn circle(&mut self, p: &Point2, r: f64, color: Color) {
        let (cx, cy) = self.tx(p);
        let _ = writeln!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r}" fill="{}"/>"#,
            color.hex(),
        );
    }

    /// Places a text label at world point `p`.
    pub fn label(&mut self, p: &Point2, text: &str, size: f64) {
        let (x, y) = self.tx(p);
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size}" font-family="sans-serif">{}</text>"#,
            escape(text),
        );
    }

    /// Finalises the SVG document string.
    pub fn finish(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\n<rect width=\"{w}\" height=\"{h}\" fill=\"white\"/>\n{body}</svg>\n",
            w = self.width,
            h = self.height,
            body = self.body,
        )
    }
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders a clustering result in the paper's Figure 18/21/22 style: thin
/// green input trajectories under thick red representative trajectories.
pub fn render_clustering(
    trajectories: &[Trajectory<2>],
    outcome: &TraclusOutcome<2>,
    width: f64,
    height: f64,
) -> String {
    let mut world = Aabb2::empty();
    for t in trajectories {
        world.extend(&t.bounding_box());
    }
    if world.is_empty() {
        world = Aabb2::new([0.0, 0.0], [1.0, 1.0]);
    }
    let mut canvas = SvgCanvas::new(world, width, height);
    for t in trajectories {
        canvas.polyline(&t.points, Color::TRAJECTORY_GREEN, 0.7, 0.45);
    }
    for c in &outcome.clusters {
        canvas.polyline(
            &c.representative.points,
            Color::REPRESENTATIVE_RED,
            3.0,
            0.95,
        );
    }
    canvas.finish()
}

/// Renders the segment database coloured by cluster label (noise in grey),
/// useful for debugging the grouping phase.
pub fn render_segments(outcome: &TraclusOutcome<2>, width: f64, height: f64) -> String {
    let world = outcome.database.bounding_box();
    let world = if world.is_empty() {
        Aabb2::new([0.0, 0.0], [1.0, 1.0])
    } else {
        world
    };
    let mut canvas = SvgCanvas::new(world, width, height);
    for (i, seg) in outcome.database.segments().enumerate() {
        let (color, width_px, opacity) = match outcome.clustering.labels[i] {
            traclus_core::SegmentLabel::Cluster(id) => (Color::palette(id.0 as usize), 1.5, 0.9),
            _ => (Color::NOISE_GREY, 0.7, 0.5),
        };
        let s = &seg.segment;
        canvas.segment(&s.start, &s.end, color, width_px, opacity);
    }
    for c in &outcome.clusters {
        canvas.polyline(
            &c.representative.points,
            Color::REPRESENTATIVE_RED,
            3.0,
            0.95,
        );
    }
    canvas.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traclus_core::{Traclus, TraclusConfig};
    use traclus_geom::{Trajectory, TrajectoryId};

    fn scene() -> Vec<Trajectory<2>> {
        (0..6)
            .map(|i| {
                Trajectory::new(
                    TrajectoryId(i),
                    (0..20)
                        .map(|k| Point2::xy(k as f64 * 5.0, i as f64 * 0.5))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn canvas_produces_well_formed_svg() {
        let mut canvas = SvgCanvas::new(Aabb2::new([0.0, 0.0], [10.0, 10.0]), 200.0, 100.0);
        canvas.polyline(
            &[Point2::xy(0.0, 0.0), Point2::xy(10.0, 10.0)],
            Color::TRAJECTORY_GREEN,
            1.0,
            1.0,
        );
        canvas.circle(&Point2::xy(5.0, 5.0), 3.0, Color::REPRESENTATIVE_RED);
        canvas.label(&Point2::xy(1.0, 1.0), "C0 <&>", 12.0);
        let svg = canvas.finish();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("&lt;&amp;&gt;"), "labels are escaped");
    }

    #[test]
    fn y_axis_is_flipped() {
        let canvas = SvgCanvas::new(Aabb2::new([0.0, 0.0], [10.0, 10.0]), 100.0, 100.0);
        let (_, y_low) = canvas.tx(&Point2::xy(0.0, 0.0));
        let (_, y_high) = canvas.tx(&Point2::xy(0.0, 10.0));
        assert!(y_high < y_low, "larger world y draws nearer the top");
    }

    #[test]
    fn polyline_needs_two_points() {
        let mut canvas = SvgCanvas::new(Aabb2::new([0.0, 0.0], [1.0, 1.0]), 10.0, 10.0);
        canvas.polyline(&[Point2::xy(0.0, 0.0)], Color::NOISE_GREY, 1.0, 1.0);
        assert!(!canvas.finish().contains("<polyline"));
    }

    #[test]
    fn render_clustering_has_green_and_red_layers() {
        let trajs = scene();
        let outcome = Traclus::new(TraclusConfig {
            eps: 3.0,
            min_lns: 3,
            ..TraclusConfig::default()
        })
        .run(&trajs);
        assert!(!outcome.clusters.is_empty(), "scene must cluster");
        let svg = render_clustering(&trajs, &outcome, 400.0, 300.0);
        assert!(svg.contains(&Color::TRAJECTORY_GREEN.hex()));
        assert!(svg.contains(&Color::REPRESENTATIVE_RED.hex()));
    }

    #[test]
    fn render_segments_colours_by_cluster() {
        let trajs = scene();
        let outcome = Traclus::new(TraclusConfig {
            eps: 3.0,
            min_lns: 3,
            ..TraclusConfig::default()
        })
        .run(&trajs);
        let svg = render_segments(&outcome, 400.0, 300.0);
        assert!(svg.contains("<line"));
        assert!(svg.contains(&Color::palette(0).hex()));
    }

    #[test]
    fn palette_cycles() {
        assert_eq!(Color::palette(0), Color::palette(10));
        assert_ne!(Color::palette(0), Color::palette(1));
    }

    #[test]
    #[should_panic(expected = "empty world")]
    fn empty_world_rejected() {
        let _ = SvgCanvas::new(Aabb2::empty(), 10.0, 10.0);
    }
}
