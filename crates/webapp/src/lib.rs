#![warn(missing_docs)]
//! Simulated web-application framework for the Joza testbed.
//!
//! Models the slice of a WordPress deployment the paper's evaluation rests
//! on:
//!
//! * an HTTP [`request`] model (GET/POST parameters, cookies, headers) —
//!   all the input sources NTI must capture (§IV-D);
//! * an application-level input [`transform`] pipeline — magic quotes,
//!   whitespace trimming, URL/base64 decoding — the transformations that
//!   both enable NTI evasion (§III-A) and motivate capturing inputs
//!   *before* the application mangles them (§IV-B);
//! * a plugin architecture ([`app`]): each plugin is a PHP-subset source
//!   file routed by slug, executed by `joza-phpsim` against the shared
//!   in-memory database;
//! * a [`gate`] seam where a protection system (Joza) intercepts every
//!   query before it reaches the DBMS, mirroring the paper's
//!   wrapper-based interception (§IV-A): a shared [`GateFactory`] opens
//!   one [`GateSession`] per request.
//!
//! # Examples
//!
//! ```
//! use joza_webapp::app::{Plugin, WebApp};
//! use joza_webapp::request::HttpRequest;
//! use joza_webapp::server::Server;
//! use joza_db::{Database, Value};
//!
//! let mut app = WebApp::new("demo");
//! app.add_plugin(Plugin::new(
//!     "echo-post", "1.0",
//!     r#"
//!     $id = $_GET['id'];
//!     $r = mysql_query("SELECT title FROM posts WHERE id=" . $id);
//!     while ($row = mysql_fetch_assoc($r)) { echo $row['title']; }
//!     "#,
//! ));
//! let mut db = Database::new();
//! db.create_table("posts", &["id", "title"]);
//! db.insert_row("posts", vec![Value::Int(1), "Hello".into()]);
//!
//! let mut server = Server::new(app, db);
//! let resp = server.handle(&HttpRequest::get("echo-post").param("id", "1"));
//! assert_eq!(resp.body, "Hello");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod app;
pub mod gate;
pub mod request;
pub mod server;
pub mod transform;

pub use app::{Plugin, WebApp};
pub use gate::{AllowAll, GateDecision, GateFactory, GateSession, RawInput};
pub use joza_phpsim::cost;
pub use request::{HttpRequest, InputSource};
pub use server::{Engine, Response, Server};
pub use transform::{InputTransform, TransformPipeline};
