//! Platform entities: users, organizations, projects and versions.
//!
//! Identities are newtypes over `u64` ([`UserId`], [`ProjectId`],
//! [`OrgId`]): every `Api` endpoint that used to take two or three
//! positional `u64`s now refuses, at compile time, a swapped
//! `(project, acting)` pair. They serialize transparently, so exported
//! platform state is byte-compatible with the untyped format.

use ei_core::impulse::ImpulseDesign;
use ei_data::Dataset;
use ei_serve::ModelBlob;
use serde::value::{DeError, Value};
use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u64);

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_newtype! {
    /// Identity of a platform user.
    UserId
}
id_newtype! {
    /// Identity of a project.
    ProjectId
}
id_newtype! {
    /// Identity of an organization.
    OrgId
}
id_newtype! {
    /// Identity of an open streaming session, handed out by
    /// `Api::stream_open` and consumed by the other `stream_*`
    /// endpoints. Serializes transparently as the raw `u64`, so any
    /// recorded session handles stay byte-compatible.
    SessionId
}

/// A platform user.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct User {
    /// Unique id.
    pub id: UserId,
    /// Display name.
    pub name: String,
}

/// An organization: a group of users collaborating on projects (paper
/// §6.3 "Organizations").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Organization {
    /// Unique id.
    pub id: OrgId,
    /// Organization name.
    pub name: String,
    /// Member user ids.
    pub members: Vec<UserId>,
}

impl Organization {
    /// `true` when the user belongs to the organization.
    pub fn has_member(&self, user_id: UserId) -> bool {
        self.members.contains(&user_id)
    }
}

/// An immutable snapshot of a project's reproducible state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProjectVersion {
    /// Version number (1-based, monotonically increasing).
    pub version: u32,
    /// Free-form description.
    pub description: String,
    /// Dataset version the snapshot captured.
    pub dataset_version: u64,
    /// Impulse design at snapshot time.
    pub impulse: Option<ImpulseDesign>,
}

/// One model-registry entry: the uploaded bytes behind a shared
/// [`ModelBlob`], hashed once when stored and handed to the serving layer
/// by pointer. Cloning it (project snapshots, registry views) copies the
/// pointer, not the bytes.
///
/// Serializes as the plain JSON string it wraps, so exported platform
/// state is byte-compatible with the `String`-valued registry; importing
/// re-stamps the hash. (Written by hand: the vendored serde derive has no
/// `with`, and the serving crate carries no serde dependency.)
#[derive(Debug, Clone)]
pub struct StoredModel(pub Arc<ModelBlob>);

impl StoredModel {
    /// Wraps (and hashes) uploaded registry bytes.
    pub fn new(json: String) -> StoredModel {
        StoredModel(Arc::new(ModelBlob::new(json)))
    }
}

impl Serialize for StoredModel {
    fn to_value(&self) -> Value {
        Value::String(self.0.json().to_string())
    }

    fn serialize(&self, w: &mut JsonWriter<'_>) {
        w.str(self.0.json());
    }
}

impl Deserialize for StoredModel {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        String::from_value(value).map(StoredModel::new)
    }

    fn deserialize(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        String::deserialize(r).map(StoredModel::new)
    }
}

/// A project: dataset + impulse design + collaboration state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Project {
    /// Unique id.
    pub id: ProjectId,
    /// Project name.
    pub name: String,
    /// Owning user.
    pub owner: UserId,
    /// Collaborator user ids (beyond the owner).
    pub collaborators: Vec<UserId>,
    /// The project's dataset.
    pub dataset: Dataset,
    /// The impulse design, once configured.
    pub impulse: Option<ImpulseDesign>,
    /// Saved version snapshots.
    pub versions: Vec<ProjectVersion>,
    /// Whether the project is listed in the public registry.
    pub public: bool,
    /// Search tags.
    pub tags: Vec<String>,
    /// The model registry: trained-impulse JSON artifacts by name.
    #[serde(default)]
    pub models: BTreeMap<String, StoredModel>,
}

impl Project {
    /// Creates a fresh private project.
    pub fn new(id: ProjectId, name: &str, owner: UserId) -> Project {
        Project {
            id,
            name: name.to_string(),
            owner,
            collaborators: Vec::new(),
            dataset: Dataset::new(name),
            impulse: None,
            versions: Vec::new(),
            public: false,
            tags: Vec::new(),
            models: BTreeMap::new(),
        }
    }

    /// `true` when the user may read/write the project.
    pub fn can_access(&self, user_id: UserId) -> bool {
        self.owner == user_id || self.collaborators.contains(&user_id)
    }

    /// Saves an immutable snapshot of the current state and returns its
    /// version number.
    pub fn snapshot(&mut self, description: &str) -> u32 {
        let version = self.versions.len() as u32 + 1;
        self.versions.push(ProjectVersion {
            version,
            description: description.to_string(),
            dataset_version: self.dataset.version(),
            impulse: self.impulse.clone(),
        });
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ei_data::{Sample, SensorKind};

    #[test]
    fn access_control() {
        let mut p = Project::new(ProjectId(1), "demo", UserId(10));
        assert!(p.can_access(UserId(10)));
        assert!(!p.can_access(UserId(11)));
        p.collaborators.push(UserId(11));
        assert!(p.can_access(UserId(11)));
        assert!(!p.can_access(UserId(12)));
    }

    #[test]
    fn snapshots_capture_dataset_version() {
        let mut p = Project::new(ProjectId(1), "demo", UserId(10));
        p.dataset.add(Sample::new(0, vec![1.0], SensorKind::Other).with_label("x"));
        let v1 = p.snapshot("initial data");
        p.dataset.add(Sample::new(0, vec![2.0], SensorKind::Other).with_label("y"));
        let v2 = p.snapshot("more data");
        assert_eq!((v1, v2), (1, 2));
        assert!(p.versions[0].dataset_version < p.versions[1].dataset_version);
        assert_eq!(p.versions[0].description, "initial data");
    }

    #[test]
    fn organization_membership() {
        let org =
            Organization { id: OrgId(1), name: "lab".into(), members: vec![UserId(1), UserId(2)] };
        assert!(org.has_member(UserId(1)));
        assert!(!org.has_member(UserId(3)));
    }

    #[test]
    fn ids_serialize_transparently() {
        // typed ids must keep exported JSON byte-compatible with raw u64s
        assert_eq!(serde_json::to_string(&ProjectId(7)).unwrap(), "7");
        let u: UserId = serde_json::from_str("42").unwrap();
        assert_eq!(u, UserId(42));
        assert_eq!(format!("project-{}", ProjectId(3)), "project-3");
        assert_eq!(serde_json::to_string(&SessionId(9)).unwrap(), "9");
        let s: SessionId = serde_json::from_str("9").unwrap();
        assert_eq!((s, s.0, format!("{s}")), (SessionId(9), 9, "9".into()));
    }

    #[test]
    fn stored_model_serializes_as_the_string_it_wraps() {
        let json = "{\"w\": [1.5, \"q\"]}".to_string();
        let stored = StoredModel::new(json.clone());
        assert_eq!(stored.0.content_hash(), ei_serve::content_hash(&json));
        let encoded = serde_json::to_string(&stored).unwrap();
        assert_eq!(encoded, serde_json::to_string(&json).unwrap());
        let decoded: StoredModel = serde_json::from_str(&encoded).unwrap();
        assert_eq!(decoded.0.json(), json);
        assert_eq!(decoded.0.content_hash(), stored.0.content_hash());
        assert!(serde_json::from_str::<StoredModel>("7").is_err());
    }
}
